"""Fleet-wide single-instance registry (the clone-detection control plane).

The paper's R1-R4 invariants assume at most one live instance per enclave
identity, but Briongos et al. ("The Real Menace of Cloning Attacks on SGX
Applications") show that the provisioning and migration windows let an
attacker race a second instance past exactly the checks a migration
framework implements: restore a stale snapshot while the original still
serves, rejoin a batched wave, relaunch from a healed disk image.  The
registry closes those windows at the *fleet* layer: one durable record per
enclave identity names the instance currently allowed to operate, and every
``migration_init`` of a clone-guarded enclave must claim that record (via
its local Migration Enclave) before any state is installed.

Detection rules, in the order they are applied to a claim:

1. **Fence is permanent** — a previously fenced instance is refused with
   :class:`~repro.errors.FencedInstanceError` no matter what it presents.
2. **Liveness** — if the recorded holder is still alive and operational
   (probed through a host-side callback bound by the owning application),
   any claim by a different instance is a clone.  The sole exception is the
   migration handoff: a ``MIGRATE`` claim from the planned destination with
   the successor epoch takes over from a frozen holder.
3. **Epoch monotonicity** — when the holder is gone (crash, termination),
   a takeover must present state at least as new as the registry has seen:
   the guard epoch is bumped on every freeze, restore, and migration
   install, so a clone restored from a stale snapshot (the healed-disk
   campaign) presents a regressed epoch and is fenced.
4. **Freeze advance** — ``migrate_out``/``stage_out`` report the freeze
   (epoch + planned destination) to the registry.  An interloper that
   claimed the identity between the freeze hitting disk and the advance
   arriving is detected *here* and fenced retroactively — that race is the
   classic cloning window, and its detection latency is exactly the
   in-flight time of the advance (reported by the chaos ``--clone`` sweep).

Migration Enclave instances are tracked separately by a **monotonic
heartbeat**: every ME checkpoint (v4) persists its heartbeat counter, so a
legitimately reinstalled ME continues the sequence while an ME cloned from
a healed older checkpoint regresses and is fenced on its first beat.

Failure posture: the registry is consulted on the serving path, so
unavailability must never become silent acceptance.  A claim against an
offline registry retries with exponential backoff in virtual time and then
*denies* with :class:`~repro.errors.RegistryUnavailableError` (transient:
the same instance may claim again once the registry is back).

Durability: one blob on the control machine's untrusted storage with a
generation counter, written and read through the storage's durable-record
primitives (:meth:`~repro.cloud.storage.UntrustedStorage.write_atomic`,
:meth:`~repro.cloud.storage.UntrustedStorage.read_record`).  A rotted blob
reads as an empty registry — which then denies restores by rule 3 only
when epochs regress, and adopts unknown identities conservatively.
Liveness probes are runtime-only attachments: a registry reloaded after a
planner restart degrades to the epoch rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wire
from repro.errors import (
    CloneDetectedError,
    FencedInstanceError,
    RegistryUnavailableError,
    ReproError,
)

INSTANCE_REGISTRY_PATH = "fleet/instance_registry"

#: Bounded retry/backoff against an unavailable registry: attempts and the
#: base virtual-time delay doubled per attempt (0.05, 0.1, 0.2 s).
UNAVAILABLE_RETRY_ATTEMPTS = 3
UNAVAILABLE_RETRY_BASE_DELAY = 0.05


@dataclass
class InstanceRecord:
    """One enclave identity's registration."""

    identity: bytes
    holder: bytes  # per-launch instance nonce of the allowed instance
    machine: str
    epoch: int
    frozen: bool = False
    planned_destination: str = ""
    fenced: tuple[bytes, ...] = ()

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "identity": self.identity,
                "holder": self.holder,
                "machine": self.machine,
                "epoch": self.epoch,
                "frozen": self.frozen,
                "planned_destination": self.planned_destination,
                "fenced": list(self.fenced),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "InstanceRecord":
        fields = wire.decode(data)
        return cls(
            identity=fields["identity"],
            holder=fields["holder"],
            machine=fields["machine"],
            epoch=fields["epoch"],
            frozen=fields["frozen"],
            planned_destination=fields["planned_destination"],
            fenced=tuple(fields["fenced"]),
        )


@dataclass(frozen=True)
class CloneIncident:
    """One detected-and-fenced clone (or heartbeat regression)."""

    identity: bytes
    instance: bytes
    machine: str
    kind: str  # claim kind, "advance", or "heartbeat"
    reason: str
    time: float  # virtual seconds at detection

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "identity": self.identity,
                "instance": self.instance,
                "machine": self.machine,
                "kind": self.kind,
                "reason": self.reason,
                "time_us": int(self.time * 1_000_000),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CloneIncident":
        fields = wire.decode(data)
        return cls(
            identity=fields["identity"],
            instance=fields["instance"],
            machine=fields["machine"],
            kind=fields["kind"],
            reason=fields["reason"],
            time=fields["time_us"] / 1_000_000,
        )


@dataclass
class _MeRecord:
    """Heartbeat tracking for one machine's Migration Enclave."""

    machine: str
    instance: bytes  # the ME's per-instance session epoch
    heartbeat: int
    fenced: tuple[bytes, ...] = ()

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "machine": self.machine,
                "instance": self.instance,
                "heartbeat": self.heartbeat,
                "fenced": list(self.fenced),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "_MeRecord":
        fields = wire.decode(data)
        return cls(
            machine=fields["machine"],
            instance=fields["instance"],
            heartbeat=fields["heartbeat"],
            fenced=tuple(fields["fenced"]),
        )


@dataclass
class _State:
    records: dict[bytes, InstanceRecord] = field(default_factory=dict)
    me_records: dict[str, _MeRecord] = field(default_factory=dict)
    incidents: list[CloneIncident] = field(default_factory=list)
    generation: int = 0

    @classmethod
    def from_bytes(cls, data: bytes) -> "_State":
        fields = wire.decode(data)
        state = cls(generation=fields.get("gen", 0))
        for row in fields.get("records", []):
            record = InstanceRecord.from_bytes(row)
            state.records[record.identity] = record
        for row in fields.get("me", []):
            record = _MeRecord.from_bytes(row)
            state.me_records[record.machine] = record
        state.incidents = [
            CloneIncident.from_bytes(row) for row in fields.get("incidents", [])
        ]
        return state


class SingleInstanceRegistry:
    """Durable at-most-one-instance arbiter for clone-guarded enclaves."""

    def __init__(self, storage, meter, owner: str = "fleet"):
        self.storage = storage
        #: The data center's :class:`~repro.sim.costs.CostMeter`: incidents
        #: are stamped with ``meter.now`` and offline backoff is charged
        #: through it, so a claim made inside a recorded fleet group reads
        #: the group's elapsed time and its backoff replays as a ``Sleep``.
        self.meter = meter
        self.owner = owner
        #: Simulated outage switch: while True, every consultation retries
        #: with backoff and then denies (never silently accepts).
        self.offline = False
        # identity -> zero-arg probe; True while the recorded holder is
        # alive and operational.  Runtime-only (never persisted).
        self._liveness: dict[bytes, object] = {}

    # ------------------------------------------------------------ storage
    @property
    def path(self) -> str:
        return INSTANCE_REGISTRY_PATH

    def _load(self) -> _State:
        # A rotted registry blob is an empty registry, not a crash: the
        # epoch/liveness rules still deny stale clones, and legitimate
        # instances re-register on their next claim.
        return self.storage.read_record(self.path, _State.from_bytes) or _State()

    def _store(self, state: _State) -> None:
        state.generation += 1
        blob = wire.encode(
            {
                "v": 1,
                "gen": state.generation,
                "records": [
                    record.to_bytes()
                    for _, record in sorted(state.records.items())
                ],
                "me": [
                    record.to_bytes()
                    for _, record in sorted(state.me_records.items())
                ],
                "incidents": [incident.to_bytes() for incident in state.incidents],
            }
        )
        self.storage.write_atomic(self.path, blob)

    # ------------------------------------------------------- availability
    def _ensure_available(self, operation: str) -> None:
        """Deny-by-default with bounded retry/backoff in virtual time."""
        if not self.offline:
            return
        delay = UNAVAILABLE_RETRY_BASE_DELAY
        for _ in range(UNAVAILABLE_RETRY_ATTEMPTS):
            self.meter.charge_exact("retry_backoff", delay)
            delay *= 2
            if not self.offline:
                return
        raise RegistryUnavailableError(
            f"single-instance registry unreachable for {operation} after "
            f"{UNAVAILABLE_RETRY_ATTEMPTS} attempts: denying by default"
        )

    # ---------------------------------------------------------- liveness
    def bind_liveness(self, identity: bytes, probe) -> None:
        """Attach a host-side probe for the identity's current holder.

        ``probe()`` must return True while the holder instance is alive and
        operational.  Rebound on every legitimate (re)launch; never
        persisted — after a registry reload the rules degrade to epoch
        monotonicity, which still fences every stale-state clone.
        """
        self._liveness[identity] = probe

    def _holder_live(self, identity: bytes) -> bool:
        probe = self._liveness.get(identity)
        if probe is None:
            return False
        try:
            return bool(probe())
        except ReproError:
            return False

    # ----------------------------------------------------------- fencing
    def _fence(
        self,
        state: _State,
        record: InstanceRecord,
        instance: bytes,
        machine: str,
        kind: str,
        reason: str,
    ) -> CloneIncident:
        if instance not in record.fenced:
            record.fenced = record.fenced + (instance,)
        incident = CloneIncident(
            identity=record.identity,
            instance=instance,
            machine=machine,
            kind=kind,
            reason=reason,
            time=self.meter.now,
        )
        state.incidents.append(incident)
        return incident

    # ------------------------------------------------------------- claims
    def claim(
        self,
        identity: bytes,
        instance: bytes,
        *,
        machine: str,
        epoch: int,
        kind: str,
    ) -> None:
        """Register ``instance`` as the identity's sole operator, or fence it.

        ``kind`` is the library init state that produced the claim
        (``"new"``, ``"restore"``, or ``"migrate"``); the migration handoff
        rule only applies to ``"migrate"`` claims.  Raises
        :class:`CloneDetectedError` (claimant fenced),
        :class:`FencedInstanceError`, or
        :class:`RegistryUnavailableError`; returns silently on success.
        """
        self._ensure_available(f"claim({kind})")
        state = self._load()
        record = state.records.get(identity)
        if record is not None and instance in record.fenced:
            self._store(state)
            raise FencedInstanceError(
                f"instance {instance.hex()} of identity {identity.hex()[:16]} "
                f"is fenced and may not operate"
            )
        if record is None:
            # First sight of this identity (bootstrap, or a registry that
            # was adopted mid-life / lost its blob): record and allow.
            state.records[identity] = InstanceRecord(
                identity=identity,
                holder=instance,
                machine=machine,
                epoch=epoch,
            )
            self._store(state)
            return
        if instance == record.holder:
            record.epoch = max(record.epoch, epoch)
            record.machine = machine
            self._store(state)
            return

        def accept() -> None:
            record.holder = instance
            record.machine = machine
            record.epoch = epoch
            record.frozen = False
            record.planned_destination = ""
            self._store(state)

        def deny(reason: str) -> None:
            incident = self._fence(state, record, instance, machine, kind, reason)
            self._store(state)
            raise CloneDetectedError(
                f"clone of identity {identity.hex()[:16]} fenced: "
                f"{incident.reason}"
            )

        handoff_ok = (
            kind == "migrate"
            and epoch == record.epoch + 1
            and (
                not record.planned_destination
                or machine == record.planned_destination
            )
        )
        if self._holder_live(identity):
            if record.frozen and handoff_ok:
                accept()  # migration handoff from a frozen (alive) holder
                return
            deny(
                f"second instance claimed ({kind}, epoch {epoch}) while the "
                f"registered holder on {record.machine} is live"
            )
        if record.frozen:
            if handoff_ok:
                accept()
                return
            deny(
                f"{kind} claim (epoch {epoch}) on an identity frozen "
                f"mid-migration towards "
                f"{record.planned_destination or 'unknown'} at epoch "
                f"{record.epoch} — the cloning window"
            )
        if epoch >= record.epoch:
            # Crash takeover: the holder is gone and the claimant presents
            # state at least as new as recorded.  ">=" (not ">") because a
            # crash between a successful claim and the epoch-bump persist
            # leaves the disk one bump behind the registry — the next
            # legitimate relaunch re-presents the recorded epoch.  Every
            # migration moves the epoch by two (freeze + install), so
            # healed/stale snapshots still regress strictly.
            accept()
            return
        deny(
            f"{kind} claim presented stale state (epoch {epoch} < recorded "
            f"{record.epoch}): restored from an old or healed snapshot"
        )

    def advance(
        self,
        identity: bytes,
        instance: bytes,
        *,
        epoch: int,
        destination: str,
        machine: str = "",
    ) -> None:
        """Record a freeze: the holder's state (at ``epoch``) left for
        ``destination``.  Called by the ME on ``migrate_out``/``stage_out``
        (and on staged re-routes), carrying the guard fields shipped inside
        the migration data.

        Detects the freeze/claim race: if a different instance claimed the
        identity after the freeze hit disk but before this advance arrived,
        that claimant is an interloper in the cloning window — it is fenced
        retroactively and the freezing holder reinstated.
        """
        self._ensure_available("advance")
        state = self._load()
        record = state.records.get(identity)
        if record is not None and instance in record.fenced:
            self._store(state)
            raise FencedInstanceError(
                f"fenced instance {instance.hex()} attempted to ship "
                f"migration data for identity {identity.hex()[:16]}"
            )
        if record is None:
            state.records[identity] = InstanceRecord(
                identity=identity,
                holder=instance,
                machine=machine,
                epoch=epoch,
                frozen=True,
                planned_destination=destination,
            )
            self._store(state)
            return
        if record.holder != instance:
            # The freeze was already durable when someone else claimed the
            # identity: fence the interloper, reinstate the freezing holder.
            self._fence(
                state,
                record,
                record.holder,
                record.machine,
                "advance",
                "claim raced a freeze in flight (cloning window): fenced on "
                "arrival of the frozen holder's migration data",
            )
            record.holder = instance
        if machine:
            record.machine = machine
        record.epoch = max(record.epoch, epoch)
        record.frozen = True
        record.planned_destination = destination
        self._store(state)

    # --------------------------------------------------------- ME heartbeats
    def me_beat(self, machine: str, instance: bytes, heartbeat: int) -> int:
        """One Migration Enclave heartbeat.

        The heartbeat counter is persisted in the ME's sealed checkpoint
        (v4), so a legitimately reinstalled ME *continues* the sequence
        while an ME restored from a healed older checkpoint regresses.  A
        non-increasing beat — same or different instance — is a clone and
        is fenced.  Returns the accepted heartbeat value.
        """
        self._ensure_available("me_beat")
        state = self._load()
        record = state.me_records.get(machine)
        if record is not None and instance in record.fenced:
            self._store(state)
            raise FencedInstanceError(
                f"fenced Migration Enclave instance on {machine} attempted "
                f"to heartbeat"
            )
        if record is None:
            state.me_records[machine] = _MeRecord(
                machine=machine, instance=instance, heartbeat=heartbeat
            )
            self._store(state)
            return heartbeat
        if heartbeat <= record.heartbeat:
            record.fenced = record.fenced + (instance,)
            state.incidents.append(
                CloneIncident(
                    identity=b"me:" + machine.encode(),
                    instance=instance,
                    machine=machine,
                    kind="heartbeat",
                    reason=(
                        f"heartbeat regression on {machine}: beat {heartbeat} "
                        f"<= recorded {record.heartbeat} — ME restored from a "
                        f"stale (healed) checkpoint"
                    ),
                    time=self.meter.now,
                )
            )
            self._store(state)
            raise CloneDetectedError(
                f"Migration Enclave clone on {machine} fenced: heartbeat "
                f"{heartbeat} regressed below {record.heartbeat}"
            )
        record.instance = instance
        record.heartbeat = heartbeat
        self._store(state)
        return heartbeat

    # ------------------------------------------------------- observability
    def record_of(self, identity: bytes) -> InstanceRecord | None:
        return self._load().records.get(identity)

    def incidents(self) -> list[CloneIncident]:
        return list(self._load().incidents)

    def incident_count(self) -> int:
        return len(self._load().incidents)

    def has_incident_on(self, machine: str) -> bool:
        return any(
            incident.machine == machine for incident in self._load().incidents
        )

    def clear(self) -> None:
        self.storage.delete_durably(self.path)
