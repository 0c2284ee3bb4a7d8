"""End-to-end wiring of the migration framework (Fig. 1 / Fig. 2).

Provides:

* :class:`MigratableEnclave` — base class for application enclaves that
  embed the Migration Library; exposes the paper's Listing 1 interface
  (``migration_init`` / ``migration_start`` / ``migration_confirm``) as
  ECALLs.
* :func:`install_migration_enclave` — stands up the per-machine Migration
  Enclave in the management VM, binds its network endpoint, and runs the
  provider's setup phase (credential provisioning).  With ``durable=True``
  the ME checkpoints its sealed state after every handled message, and
  :func:`reinstall_migration_enclave` brings it back after a crash.
* :class:`MigratableApp` — the untrusted application half: launches the
  enclave, relays its Migration Library traffic, stores the sealed library
  buffer, and drives the migrate / restart / resume flows used by examples,
  attacks, and benchmarks.  ``migrate`` and ``resume`` return a typed
  :class:`~repro.core.result.MigrationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wire
from repro.cloud.datacenter import DataCenter
from repro.cloud.machine import PhysicalMachine
from repro.cloud.network import Endpoint
from repro.cloud.storage import (
    PHASE_ARRIVED,
    PHASE_PREPARE,
    PHASE_SHIPPED,
    MigrationJournal,
    MigrationRecord,
)
from repro.core.api import MigrationRequest
from repro.core.migration_enclave import MigrationEnclave
from repro.core.migration_library import InitState, MigrationLibrary
from repro.core.policy import PolicySet, SameProviderPolicy
from repro.core.result import CostSnapshot, MigrationOutcome, MigrationResult
from repro.core.retry import RetryPolicy, call_with_retries
from repro.errors import (
    CounterNotFoundError,
    InvalidStateError,
    MigrationError,
    MigrationPendingError,
    ReproError,
    TransientError,
)
from repro.sgx.enclave import Enclave, EnclaveBase, ecall
from repro.sgx.identity import SigningKey
from repro.sgx.measurement import measure_source

LIBRARY_STATE_PATH = "miglib_state"

#: Prefix of the ME checkpoint records below.
ME_CHECKPOINT_PATH = "me_checkpoint"

#: A/B double-buffered checkpoint slots plus the tiny pointer record that
#: names the authoritative one.  The writer alternates slots by generation
#: (write the *other* slot, fsync, flip the pointer), so a torn or lost
#: checkpoint write can only damage the newest generation — the previous
#: one is always intact for recovery to fall back to.
ME_CHECKPOINT_SLOTS = (f"{ME_CHECKPOINT_PATH}.a", f"{ME_CHECKPOINT_PATH}.b")
ME_CHECKPOINT_POINTER = f"{ME_CHECKPOINT_PATH}.ptr"

#: Deadline (simulated seconds) for one request/response exchange with an
#: ME.  Exceeding it raises NetworkTimeoutError at the sender — the request
#: may still have been delivered, which is why every ME command is
#: idempotent (keyed by migration-transaction id).
ME_REQUEST_TIMEOUT = 30.0


def flush_staged(app, destination: str) -> dict:
    """Have the ME on ``app``'s machine ship every record staged for
    ``destination``: one attested session, one policy check and one
    ``transfer_batch`` exchange for all of them.

    ``app`` is the untrusted application that sends the trigger.  A
    retryable failure raises :class:`MigrationPendingError` and leaves the
    records staged for the next flush; any other failure raises
    :class:`MigrationError`.  Returns the ME's reply, which counts the
    records ``shipped`` and ``already_delivered``.
    """
    reply = wire.decode(
        app.send(
            Endpoint.me(app.machine.address),
            wire.encode({"t": "flush_staged", "dest": destination}),
            timeout=ME_REQUEST_TIMEOUT,
        )
    )
    if reply.get("status") != "ok":
        if reply.get("retryable"):
            raise MigrationPendingError(
                f"flush failed (retryable): {reply.get('error')}"
            )
        raise MigrationError(f"flush failed: {reply.get('error')}")
    return reply


def _parked(app, txn: str, retries: int, start_cost, error) -> MigrationResult:
    """A wave member left frozen with its journal kept, for the next wave."""
    return MigrationResult(
        outcome=MigrationOutcome.PENDING_RETRY,
        txn_id=txn,
        retries_used=retries,
        cost=CostSnapshot.capture(app.dc).delta(start_cost),
        error=error,
    )


def expected_me_mrenclave() -> bytes:
    """The measured identity of the deployed Migration Enclave build.

    Application enclaves pin this value so their local attestation only
    trusts the genuine ME (Section V-C).
    """
    return measure_source(MigrationEnclave)


class MigratableEnclave(EnclaveBase):
    """Base class for enclaves that include the Migration Library.

    The library is part of the enclave's measured identity (it is listed in
    ``MEASURED_LIBRARIES``), matching the paper's model where the developer
    links the library into the enclave.
    """

    def __init__(self, sdk):
        super().__init__(sdk)
        self.miglib = MigrationLibrary(sdk, me_mrenclave=expected_me_mrenclave())

    # ------------------------------------------------ Listing 1 interface
    @ecall
    def migration_init(
        self,
        data_buffer: bytes | None,
        init_state: str,
        me_address: str,
        txn_id: str = "",
        clone_guard: bool = False,
    ) -> bytes:
        """Initialize the Migration Library; must be called on every load.

        ``clone_guard=True`` (honored on NEW only; later loads inherit the
        guard from the sealed state) enrolls this enclave with the fleet's
        single-instance registry — see :mod:`repro.fleet.registry`."""
        return self.miglib.migration_init(
            data_buffer, InitState[init_state], me_address, txn_id,
            clone_guard=clone_guard,
        )

    @ecall
    def migration_start(self, destination_address: str, txn_id: str = "") -> None:
        """Freeze this enclave and park its persistent state at the local ME
        for the next ``flush_staged`` (see :func:`flush_staged`)."""
        self.miglib.migration_start(destination_address, txn_id)

    @ecall
    def migration_confirm(self) -> None:
        """Confirm an installed migration (releases the source copy)."""
        self.miglib.confirm_migration()

    # ----------------------------------------------------------- helpers
    @ecall
    def is_frozen(self) -> bool:
        return self.miglib.frozen

    @ecall
    def migration_ready(self) -> bool:
        """True once the library is initialized and serving (not frozen)."""
        return self.miglib.initialized and not self.miglib.frozen

    @ecall
    def guard_identity(self) -> bytes:
        """The clone-guard identity (empty for unguarded enclaves)."""
        return self.miglib.guard_identity


# The base class and library sources are both folded into subclasses'
# MRENCLAVEs: trusted code the developer ships is trusted code measured.
MigratableEnclave.MEASURED_LIBRARIES = (MigrationLibrary, MigratableEnclave)


@dataclass
class MigrationEnclaveHost:
    """The running ME on one machine plus its service endpoint.

    ``restored_generation`` is set by :func:`reinstall_migration_enclave`:
    the A/B checkpoint generation the revived ME booted from (``None`` for a
    fresh install or when no candidate survived AEAD validation).
    """

    machine: PhysicalMachine
    enclave: Enclave
    address: str  # machine address; service endpoint is f"{address}/me"
    restored_generation: int | None = None


def _write_me_checkpoint(mgmt_app, sealed_state: bytes, generation: int) -> int:
    """One A/B checkpoint update: next generation into the alternate slot
    (durable store = write + fsync), then flip the pointer record."""
    generation += 1
    slot = ME_CHECKPOINT_SLOTS[generation % 2]
    mgmt_app.store(slot, wire.encode({"gen": generation, "blob": sealed_state}))
    mgmt_app.store(ME_CHECKPOINT_POINTER, wire.encode({"gen": generation}))
    return generation


def _me_checkpoint_candidates(mgmt_app) -> list[tuple[int, bytes]]:
    """Parseable ``(generation, sealed blob)`` checkpoints in recovery
    preference order: the pointer's generation first, then the rest by
    descending generation.

    Parse failures (a torn slot, a rotted pointer) simply drop a candidate —
    the AEAD check at import time is the real gate; this order only decides
    what to try first.
    """
    slots: list[tuple[int, bytes]] = []
    for path in ME_CHECKPOINT_SLOTS:
        if not mgmt_app.has_stored(path):
            continue
        try:
            record = wire.decode(mgmt_app.load(path))
            slots.append((int(record["gen"]), bytes(record["blob"])))
        except (wire.WireError, KeyError, TypeError, ValueError):
            continue
    preferred = -1
    if mgmt_app.has_stored(ME_CHECKPOINT_POINTER):
        try:
            record = wire.decode(mgmt_app.load(ME_CHECKPOINT_POINTER))
            preferred = int(record["gen"])
        except (wire.WireError, KeyError, TypeError, ValueError):
            pass
    slots.sort(key=lambda item: (item[0] != preferred, -item[0]))
    return slots


def _me_checkpoint_generation(mgmt_app) -> int:
    """Highest generation present on disk, so a reinstalled ME's writer
    continues the sequence instead of overwriting the newest slot."""
    return max((gen for gen, _ in _me_checkpoint_candidates(mgmt_app)), default=0)


def _provision_and_register(
    dc: DataCenter,
    machine: PhysicalMachine,
    mgmt_app,
    me_enclave: Enclave,
    policies: PolicySet | None,
    durable: bool,
    replace: bool,
    session_resumption: bool,
    registry=None,
) -> MigrationEnclaveHost:
    """Shared tail of (re)installation: setup phase + endpoint binding."""
    # Setup phase: the data-center operator certifies this ME.
    me_public = me_enclave.ecall("signing_public_key")
    credential = dc.issue_credential(
        machine.address, me_enclave.identity.mrenclave, me_public
    )
    if policies is None:
        policies = PolicySet([SameProviderPolicy(dc.name)])
    me_enclave.ecall(
        "provision",
        credential.to_bytes(),
        dc.ca_public_key,
        dc.ias_verify_for(machine),
        dc.ias.report_public_key,
        machine.address,
        policies,
        session_resumption,
    )
    if registry is not None:
        # Attach before the endpoint goes live (and before the initial
        # durable checkpoint below, which therefore seals as v4).
        me_enclave.ecall("attach_registry", registry)

    if durable:
        checkpoint_state = {"gen": _me_checkpoint_generation(mgmt_app)}

        def checkpoint():
            checkpoint_state["gen"] = _write_me_checkpoint(
                mgmt_app,
                me_enclave.ecall("export_sealed_state"),
                checkpoint_state["gen"],
            )

        def handler(payload, src):
            response = me_enclave.ecall("handle_message", payload, src)
            # Checkpoint after every handled message so a crash never loses
            # the ME's "temporary store" of migration data (Section VI-A).
            checkpoint()
            return response

        checkpoint()
    else:
        def handler(payload, src):
            return me_enclave.ecall("handle_message", payload, src)

    dc.network.register(Endpoint.me(machine.address), handler, replace=replace)
    return MigrationEnclaveHost(
        machine=machine, enclave=me_enclave, address=machine.address
    )


def install_migration_enclave(
    dc: DataCenter,
    machine: PhysicalMachine,
    me_signing_key: SigningKey,
    policies: PolicySet | None = None,
    *,
    durable: bool = False,
    session_resumption: bool = False,
    registry=None,
) -> MigrationEnclaveHost:
    """Deploy + provision the Migration Enclave on ``machine``.

    Runs in the management VM (which also hosts Platform Services per
    Section VI-C), registers the ``<machine>/me`` network endpoint, and
    performs the provider's setup phase.  ``durable=True`` adds a sealed
    checkpoint after every handled message (see
    :func:`reinstall_migration_enclave`).  ``session_resumption=True``
    opts the ME into reusing attested ME<->ME sessions across migrations
    to the same destination (an ablation, off by default).  ``registry``
    (a :class:`~repro.fleet.registry.SingleInstanceRegistry`) attaches the
    fleet's clone-detection arbiter.
    """
    mgmt_app = machine.management_vm.launch_application("migration-service")
    me_enclave = mgmt_app.launch_enclave(MigrationEnclave, me_signing_key)
    me_enclave.register_ocall(
        "net_send",
        lambda dst, payload: mgmt_app.send(dst, payload, timeout=ME_REQUEST_TIMEOUT),
    )
    return _provision_and_register(
        dc, machine, mgmt_app, me_enclave, policies, durable, replace=False,
        session_resumption=session_resumption, registry=registry,
    )


def reinstall_migration_enclave(
    dc: DataCenter,
    machine: PhysicalMachine,
    me_signing_key: SigningKey,
    policies: PolicySet | None = None,
    *,
    durable: bool = True,
    session_resumption: bool = False,
    registry=None,
) -> MigrationEnclaveHost:
    """Bring the Migration Enclave back after a machine crash or mgmt-VM
    restart, restoring its sealed checkpoint when one survives on disk.

    The checkpoint is imported *before* credential issuance so the restored
    signing key (not the fresh enclave's) is the one the new credential
    certifies — peers that cached nothing keep working, and retained
    migration data (pending/incoming stores plus the idempotency records)
    is back in place before the endpoint reappears.

    Recovery walks the A/B candidates in preference order and imports the
    newest one whose seal passes AEAD validation; a torn or lost newest
    checkpoint therefore falls back to the previous generation instead of
    leaving the machine unbootable.  When every candidate fails, the ME
    comes up fresh (losing parked migration data is an availability cost;
    R3/R4 never depend on the checkpoint).
    """
    mgmt_app = next(
        (
            app
            for app in machine.management_vm.applications
            if app.name == "migration-service"
        ),
        None,
    )
    if mgmt_app is None:
        mgmt_app = machine.management_vm.launch_application("migration-service")
    elif not mgmt_app.running:
        mgmt_app.restart()
    me_enclave = mgmt_app.launch_enclave(MigrationEnclave, me_signing_key)
    me_enclave.register_ocall(
        "net_send",
        lambda dst, payload: mgmt_app.send(dst, payload, timeout=ME_REQUEST_TIMEOUT),
    )
    restored_generation: int | None = None
    for generation, blob in _me_checkpoint_candidates(mgmt_app):
        try:
            me_enclave.ecall("import_sealed_state", blob)
        except ReproError:
            continue  # damaged or foreign checkpoint: fall back a generation
        restored_generation = generation
        break
    host = _provision_and_register(
        dc, machine, mgmt_app, me_enclave, policies, durable, replace=True,
        session_resumption=session_resumption, registry=registry,
    )
    host.restored_generation = restored_generation
    return host


def install_all_migration_enclaves(
    dc: DataCenter,
    me_signing_key: SigningKey | None = None,
    *,
    durable: bool = False,
    session_resumption: bool = False,
    registry=None,
) -> dict[str, MigrationEnclaveHost]:
    """Deploy the ME on every machine of the data center."""
    if me_signing_key is None:
        me_signing_key = SigningKey.generate(dc.rng.child("me-signer"))
    return {
        name: install_migration_enclave(
            dc, machine, me_signing_key,
            durable=durable, session_resumption=session_resumption,
            registry=registry,
        )
        for name, machine in dc.machines.items()
    }


@dataclass
class MigratableApp:
    """Untrusted application hosting one migratable enclave.

    Owns the Listing 1 lifecycle: it decides when to call
    ``migration_init`` (and with which ``init_state``) and when to trigger
    ``migration_start``, stores the sealed Table II buffer, and keeps the
    on-disk migration journal that lets :meth:`resume` drive an interrupted
    migration to completion after a crash.
    """

    vm_name: str
    app_name: str
    enclave_class: type
    signing_key: SigningKey
    dc: DataCenter
    vm: object = None
    app: object = None
    enclave: Enclave | None = None
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    # Clone defense (opt-in): ``clone_guard=True`` makes a NEW init mint a
    # guard identity inside the library; ``registry`` is the fleet's
    # single-instance registry, used host-side only to bind a liveness
    # probe for this instance (the trusted checks run library->ME).
    registry: object = None
    clone_guard: bool = False
    _txn_seq: int = 0
    #: Set by a subclass whose relocation step (:meth:`_install`) retires
    #: the whole source VM: the wave then refuses to move it with another
    #: member of that VM.
    relocates_alone = False

    @classmethod
    def deploy(
        cls,
        dc: DataCenter,
        machine: PhysicalMachine,
        enclave_class: type,
        signing_key: SigningKey,
        vm_name: str = "guest",
        app_name: str = "app",
        vm_memory: int = 1 << 30,
    ) -> "MigratableApp":
        vm = machine.create_vm(vm_name, memory_bytes=vm_memory)
        instance = cls(
            vm_name=vm_name,
            app_name=app_name,
            enclave_class=enclave_class,
            signing_key=signing_key,
            dc=dc,
        )
        instance.vm = vm
        instance.app = vm.launch_application(app_name)
        return instance

    # ----------------------------------------------------------- lifecycle
    def launch(
        self,
        init_state: InitState,
        *,
        retry_policy: RetryPolicy | None = None,
        txn_id: str = "",
    ) -> Enclave:
        """Load the enclave and initialize its Migration Library.

        Transient failures (the local ME briefly unreachable) are retried
        under ``retry_policy``; ``migration_init`` is idempotent until it
        succeeds because the library only installs state on success.
        ``txn_id`` names the migration transaction a MIGRATE init should
        fetch — required when a wave parked several records for this
        enclave's MRENCLAVE at the destination ME.
        """
        policy = retry_policy or self.retry_policy
        app = self.app
        if not app.running:
            app.restart()
        enclave = app.launch_enclave(self.enclave_class, self.signing_key)
        enclave.register_ocall(
            "send_to_me",
            lambda addr, payload: app.send(
                Endpoint.me(addr), payload, timeout=ME_REQUEST_TIMEOUT
            ),
        )
        # Atomic replace: the library seals the *new* blob and only the
        # rename releases the old one, so no crash point leaves zero
        # decryptable copies of the Table II buffer on disk.
        enclave.register_ocall(
            "save_library_state",
            lambda blob: app.store_atomic(LIBRARY_STATE_PATH, blob),
        )
        # Expose the handle before init: a frozen RESTORE raises from the
        # init ECALL but leaves the (refusing-to-operate) enclave loaded,
        # and resume() needs that handle to drive the retry path.
        self.enclave = enclave
        buffer = app.load(LIBRARY_STATE_PATH) if app.has_stored(LIBRARY_STATE_PATH) else None
        if buffer is None and init_state is InitState.RESTORE:
            raise InvalidStateError("no stored library buffer to restore from")
        try:
            blob, _ = call_with_retries(
                lambda: enclave.ecall(
                    "migration_init", buffer, init_state.name, app.machine.address,
                    txn_id, self.clone_guard if init_state is InitState.NEW else False,
                ),
                meter=self.dc.meter,
                policy=policy,
            )
        except InvalidStateError:
            # Frozen RESTORE: the state IS loaded, and resume() drives the
            # migration_start retry path through this handle — keep it.
            raise
        except ReproError:
            # Nothing was installed (torn/rotted buffer, exhausted ME
            # retries): a half-launched instance is useless and, worse,
            # resume() would keep reusing it.  Drop it so a later attempt —
            # possibly after the disk is healed — relaunches cleanly.
            app.enclaves.remove(enclave)
            app.machine.on_enclave_destroyed(enclave)
            enclave.destroy()
            self.enclave = None
            raise
        if self.registry is not None:
            self._bind_liveness(enclave)
        if init_state is not InitState.RESTORE:
            # RESTORE returns the input buffer unchanged; rewriting it would
            # push a redundant generation into the storage archive and, if
            # the disk had served a stale bundle, bury the good one.
            app.store_atomic(LIBRARY_STATE_PATH, blob)
        if init_state is InitState.MIGRATE:
            # The library state is persisted; only now may the source copy
            # be released.  Confirmation is idempotent, so retry blindly.
            call_with_retries(
                lambda: enclave.ecall("migration_confirm"),
                meter=self.dc.meter,
                policy=policy,
            )
        return enclave

    def _bind_liveness(self, enclave: Enclave) -> None:
        """Register a host-side liveness probe with the single-instance
        registry so it can distinguish "holder crashed, legitimate
        relaunch" from "holder still serving, this claim is a clone".
        The probe reports *operational* liveness: a loaded-but-frozen
        enclave is not serving and must not block the migrate handoff."""
        identity = enclave.ecall("guard_identity")
        if not identity:
            return  # unguarded instance: nothing for the registry to track

        def probe() -> bool:
            if self.enclave is not enclave or not enclave.alive:
                return False
            try:
                return bool(enclave.ecall("migration_ready"))
            except ReproError:
                return False

        self.registry.bind_liveness(identity, probe)

    def start_new(self) -> Enclave:
        return self.launch(InitState.NEW)

    def restart(self) -> Enclave:
        """Terminate the app process and restart from the stored buffer."""
        if self.app.running:
            self.app.terminate()
        return self.launch(InitState.RESTORE)

    def launch_from_incoming(self) -> Enclave:
        """Start the enclave on the destination and pull its migration data
        from the local Migration Enclave (Fig. 1's 'Migrated enclave')."""
        return self.launch(InitState.MIGRATE)

    # ------------------------------------------------------------ migration
    def _journal(self) -> MigrationJournal:
        """The migration-in-progress record on the app's *current* machine."""
        return MigrationJournal(self.app.machine.storage, self.app_name)

    def _journaled_txn(self, destination: str) -> MigrationRecord | None:
        """The source-side transaction in progress toward ``destination``,
        which the next wave continues, or ``None`` when nothing is in
        progress.

        Any other transaction in progress raises :class:`MigrationError`:
        :meth:`resume` finishes it first, so a frozen enclave's state never
        ships under a second transaction.
        """
        record = self._journal().read()
        if record is not None and (
            record.role != "source" or record.destination != destination
        ):
            raise MigrationError(
                f"{self.app_name} has migration {record.txn_id} to "
                f"{record.destination} in progress; finish it with resume()"
            )
        return record

    def migrate(
        self,
        destination: PhysicalMachine,
        migrate_vm: bool = True,
        *,
        retry_policy: RetryPolicy | None = None,
    ) -> MigrationResult:
        """The full paper flow (Fig. 2), hardened: journal the transaction,
        notify the enclave (with retries), ship persistent state via the
        MEs, relocate the VM, and re-initialize on the destination.

        A wave of one (:meth:`migrate_group`).  Returns a
        :class:`MigrationResult`; on transient exhaustion the outcome is
        ``PENDING_RETRY`` and the journal is retained, so calling
        ``migrate`` again with the same destination, or :meth:`resume`,
        finishes the same transaction.  Fatal errors raise.
        """
        (result,) = self._execute(
            MigrationRequest.wave(
                [self],
                destination.address,
                migrate_vm=migrate_vm,
                retry_policy=retry_policy,
            )
        )
        return result

    def _move_vm(self, members: list, destination: PhysicalMachine, migrate_vm: bool):
        """The wave's relocation step, once per VM: stop ``members`` (the
        apps of this VM the wave migrates) and move the VM."""
        for member in members:
            member.app.terminate()
        if migrate_vm:
            self.dc.hypervisor.migrate_vm(self.vm, destination)
        else:
            # State-only relocation (e.g. redeploying from an image): the
            # app is recreated on the destination.
            self.vm.machine.release_vm(self.vm)
            destination.adopt_vm(self.vm)

    def _install(self, destination: PhysicalMachine, txn: str, policy: RetryPolicy):
        """Start on ``destination`` (where the VM now is) from the data its
        ME holds under ``txn``: several same-MRENCLAVE records may wait."""
        return self.launch(InitState.MIGRATE, retry_policy=policy, txn_id=txn)

    @classmethod
    def migrate_group(
        cls,
        apps: list["MigratableApp"],
        destination: PhysicalMachine,
        *,
        migrate_vm: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> list[MigrationResult]:
        """Migrate a wave of enclaves with batched ME<->ME exchanges — one
        attested session and one ``transfer_batch`` per source machine —
        instead of one full exchange per enclave.  :meth:`migrate` is the
        wave of one.

        Three phases per (source, destination) group:

        1. **Stage** — each enclave journals the transaction and freezes
           into its local ME (``migration_start``); the record is parked,
           not shipped, so a crash anywhere leaves every enclave
           individually resumable.  A member whose journal already holds a
           source-side transaction to this destination (a parked earlier
           attempt) re-stages under that transaction, relaunched from its
           frozen library state first if its enclave died, and reports
           ``RESUMED``; a transaction to another destination raises
           :class:`MigrationError` until :meth:`resume` finishes it.
        2. **Flush** — one ``flush_staged`` message per source ME ships all
           staged records over ONE attested session in ONE
           ``transfer_batch`` exchange (:func:`flush_staged`): this is where
           the wave amortizes the remote attestation + provider-auth
           handshake.
        3. **Relocate** — each VM moves once (:meth:`_move_vm`), then each
           member in it starts and confirms on the destination
           (:meth:`_install`): everything R1-R4 depends on stays
           per-enclave and per-transaction.  A VM moves only with every app
           in it that keeps library state (one outside the wave is refused
           before anything freezes) and once all its members shipped.  An
           app whose relocation retires its VM (``relocates_alone``) is
           refused beside another member of that VM.

        Returns one :class:`MigrationResult` per app, in input order.  Apps
        whose stage, flush or relocation failed transiently report
        ``PENDING_RETRY``; the same wave again finishes them under the same
        transactions, as does each app's own :meth:`resume` when it is
        alone in its VM.  Fatal errors raise.
        """
        return cls._execute(
            MigrationRequest.wave(
                apps,
                destination.address,
                migrate_vm=migrate_vm,
                retry_policy=retry_policy,
            )
        )

    @classmethod
    def _execute(cls, request: MigrationRequest) -> list[MigrationResult]:
        """Run one wave (:meth:`migrate_group`).  Every source-side entry
        point funnels through here, and no other host code freezes or
        ships an enclave."""
        apps = list(request.members)
        if not apps:
            return []
        destination = apps[0].dc.machine(request.target)
        retry_policy = request.retry_policy
        results: dict[int, MigrationResult] = {}
        groups: dict[str, list[int]] = {}
        in_progress: list[MigrationRecord | None] = []
        for index, app in enumerate(apps):
            in_progress.append(app._journaled_txn(destination.address))
            if in_progress[index] is None and (
                app.enclave is None or not app.enclave.alive
            ):
                raise MigrationError(
                    f"{app.app_name} has no running enclave to migrate"
                )
            if app.app.machine is destination:
                raise MigrationError(
                    f"{app.app_name} is already on {destination.address}"
                )
            # The VM leaves the source whole: an app in it that the wave
            # leaves out would lose its library state on the source disk.
            for other in app.vm.applications:
                if all(other is not member.app for member in apps) and (
                    other.has_stored(LIBRARY_STATE_PATH)
                ):
                    raise MigrationError(
                        f"{app.app_name} shares VM {app.vm.name} with "
                        f"{other.name}, which this wave does not migrate"
                    )
            if app.relocates_alone:
                sharing = [m.app_name for m in apps if m is not app and m.vm is app.vm]
                if sharing:
                    raise MigrationError(
                        f"{app.app_name} and {', '.join(sharing)} share VM "
                        f"{app.vm.name}, which {app.app_name}'s relocation "
                        "retires: migrate them in separate VMs"
                    )
            groups.setdefault(app.app.machine.address, []).append(index)

        # Every member passed: one whose journaled transaction outlived its
        # enclave comes back from its persisted (frozen) library state, and
        # phase 1 re-drives that transaction through the new handle.
        for app, record in zip(apps, in_progress):
            if record is not None and (app.enclave is None or not app.enclave.alive):
                try:
                    app.launch(
                        InitState.RESTORE, retry_policy=retry_policy or app.retry_policy
                    )
                except InvalidStateError:
                    # Frozen blob: migration_init loaded the state and then
                    # refused to operate; the handle serves migration_start.
                    pass

        for source_address, indices in groups.items():
            # ---- phase 1: stage every member at the source ME
            staged: list[tuple[int, str, int, CostSnapshot]] = []
            for i in indices:
                app = apps[i]
                policy = retry_policy or app.retry_policy
                start_cost = CostSnapshot.capture(app.dc)
                if in_progress[i] is not None:
                    # Continue the journaled transaction: the ME dedupes
                    # and re-routes by its id (Section V-D retry).
                    txn = in_progress[i].txn_id
                else:
                    app._txn_seq += 1
                    txn = f"{app.app_name}-txn-{app._txn_seq}"
                    # Persist the migration-in-progress record BEFORE the
                    # first irreversible step (Section VI-C): a crash from
                    # here on leaves enough on disk to finish or retry.
                    app._journal().write(
                        MigrationRecord(
                            txn, "source", PHASE_PREPARE, source_address,
                            destination.address,
                        )
                    )
                try:
                    _, retries = call_with_retries(
                        lambda app=app, txn=txn: app.enclave.ecall(
                            "migration_start", destination.address, txn
                        ),
                        meter=app.dc.meter,
                        policy=policy,
                    )
                except TransientError as exc:
                    results[i] = _parked(
                        app, txn, policy.max_attempts - 1, start_cost, exc
                    )
                    continue
                except CounterNotFoundError:
                    # The Section VI-B defense tripped: the instance restored
                    # a stale pre-freeze bundle whose counters were destroyed
                    # at freeze time.  That state can never operate again —
                    # drop the instance so the next resume relaunches from
                    # the (possibly healed) persisted bundle instead of
                    # wedging.
                    app.app.terminate()
                    app.enclave = None
                    raise
                staged.append((i, txn, retries, start_cost))
            if not staged:
                continue

            # ---- phase 2: one flush ships the whole group
            flusher = apps[staged[0][0]]
            try:
                call_with_retries(
                    lambda flusher=flusher: flush_staged(
                        flusher.app, destination.address
                    ),
                    meter=flusher.dc.meter,
                    policy=retry_policy or flusher.retry_policy,
                )
            except TransientError as exc:
                # The whole group stays parked (staged) at the source ME and
                # every journal is at PREPARE: the next wave, or each app's
                # resume(), re-drives its own transaction.
                for i, txn, retries, start_cost in staged:
                    results[i] = _parked(apps[i], txn, retries, start_cost, exc)
                continue

            # ---- phase 3: move each VM once, then install its members
            source_storage = flusher.app.machine.storage
            vms: dict[str, list[tuple[int, str, int, CostSnapshot]]] = {}
            for entry in staged:
                vms.setdefault(apps[entry[0]].vm.name, []).append(entry)
            for members in vms.values():
                vm = apps[members[0][0]].vm
                # A member of this VM whose stage failed already has its
                # result; the VM cannot leave without it, so the shipped
                # members stay parked for the next wave too.
                waiting = [
                    apps[i].app_name for i in indices
                    if i in results and apps[i].vm is vm
                ]
                if waiting:
                    error = MigrationPendingError(
                        f"VM {vm.name} waits for {', '.join(waiting)} to ship"
                    )
                    for i, txn, retries, start_cost in members:
                        results[i] = _parked(apps[i], txn, retries, start_cost, error)
                    continue
                for i, txn, retries, _ in members:
                    apps[i]._journal().write(
                        MigrationRecord(
                            txn, "source", PHASE_SHIPPED, source_address,
                            destination.address, retries=retries,
                        )
                    )
                    # The destination-side record goes down BEFORE the VM
                    # moves: there is then no instant at which a crash
                    # leaves no journal anywhere.
                    MigrationJournal(destination.storage, apps[i].app_name).write(
                        MigrationRecord(
                            txn, "destination", PHASE_ARRIVED, source_address,
                            destination.address,
                        )
                    )
                vm_apps = [apps[i] for i, *_ in members]
                vm_apps[0]._move_vm(vm_apps, destination, request.migrate_vm)
                for i, txn, retries, start_cost in members:
                    app = apps[i]
                    policy = retry_policy or app.retry_policy
                    try:
                        enclave = app._install(destination, txn, policy)
                    except TransientError as exc:
                        results[i] = _parked(app, txn, retries, start_cost, exc)
                        continue
                    app._journal().clear()
                    MigrationJournal(source_storage, app.app_name).clear()
                    results[i] = MigrationResult(
                        outcome=MigrationOutcome.COMPLETED
                        if in_progress[i] is None
                        else MigrationOutcome.RESUMED,
                        txn_id=txn,
                        retries_used=retries,
                        cost=CostSnapshot.capture(app.dc).delta(start_cost),
                        enclave=enclave,
                    )
        return [results[i] for i in range(len(apps))]

    def resume(
        self,
        *,
        migrate_vm: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> MigrationResult:
        """Drive an interrupted migration to completion after a crash.

        Reads the journal on the app's current machine.  A ``role=source``
        record calls :meth:`migrate` to the journaled destination, which
        continues the journaled transaction: relaunch a dead enclave from
        the persisted library state, re-freeze or retry, flush, complete
        the relocation;
        ``role=destination`` records finish the install (fetch if the state
        never landed, confirm otherwise).  Raises :class:`MigrationError`
        when no migration is in progress or the app shares its VM with
        another migratable app (the same ``migrate_vm`` again finishes
        those), and the transient error when the fault window is still open.
        """
        policy = retry_policy or self.retry_policy
        record = self._journal().read()
        if record is None:
            raise MigrationError("no migration in progress for this application")
        start_cost = CostSnapshot.capture(self.dc)

        if record.role == "source":
            result = self.migrate(
                self.dc.machine(record.destination), migrate_vm,
                retry_policy=retry_policy,
            )
            if result.outcome is MigrationOutcome.PENDING_RETRY:
                raise result.error
            result.cost = CostSnapshot.capture(self.dc).delta(start_cost)
            return result

        # role == "destination": the VM already moved here.
        if self.enclave is not None and self.enclave.alive and self.enclave.ecall(
            "migration_ready"
        ):
            enclave = self.enclave
            call_with_retries(
                lambda: enclave.ecall("migration_confirm"),
                meter=self.dc.meter,
                policy=policy,
            )
        elif self.app.has_stored(LIBRARY_STATE_PATH):
            # The migrated state was installed and persisted before the
            # crash; a plain RESTORE brings it back, then (re)confirm.
            # Any half-initialized instance from the interrupted attempt is
            # torn down first — recovery restarts from persisted state.
            if self.app.running:
                self.app.terminate()
            enclave = self.launch(
                InitState.RESTORE, retry_policy=policy, txn_id=record.txn_id
            )
            call_with_retries(
                lambda: enclave.ecall("migration_confirm"),
                meter=self.dc.meter,
                policy=policy,
            )
        else:
            # Crash before the install: the data still waits at the local
            # ME (or at the source ME, in which case the source resumes).
            if self.app.running:
                self.app.terminate()
            enclave = self.launch(
                InitState.MIGRATE, retry_policy=policy, txn_id=record.txn_id
            )
        self._journal().clear()
        MigrationJournal(
            self.dc.machine(record.source).storage, self.app_name
        ).clear()
        return MigrationResult(
            outcome=MigrationOutcome.RESUMED,
            txn_id=record.txn_id,
            cost=CostSnapshot.capture(self.dc).delta(start_cost),
            enclave=enclave,
        )

    # -------------------------------------------------------------- helpers
    def stored_library_buffer(self) -> bytes:
        return self.app.load(LIBRARY_STATE_PATH)

    def ecall(self, name: str, *args, **kwargs):
        if self.enclave is None:
            raise InvalidStateError("enclave not launched")
        return self.enclave.ecall(name, *args, **kwargs)
