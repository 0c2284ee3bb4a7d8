"""Chaos harness: one scenario loop and one R3/R4 oracle for every fault family.

The paper's correctness argument (Section VI-C) is that the migration
protocol preserves two invariants *no matter where it is interrupted*:

* **R3** — at no point are there two operational instances of the migrated
  enclave (no forking via migration).
* **R4** — the enclave's monotonic counters never regress (no rollback via
  migration).

This module turns that argument into executable sweeps.  Every fault family
plugs into the same harness as a :class:`Scenario`: a frozen record of one
grid point (its fields are the seeded grid coordinates the goldens pin) that
builds a fresh :class:`World` with :func:`build_world` and runs itself on
it — attach its fault plan with :func:`attach_injector`, drive the faulted
operation, bring the world back with :func:`recover`, and add whatever check
only its family needs.  :func:`run_scenario` then applies the one oracle,
:func:`check_invariants`, which probes every live enclave through ECALLs
alone.

Run it as a module::

    PYTHONPATH=src python -m repro.faults.chaos [SEED] [--session-resumption]
    PYTHONPATH=src python -m repro.faults.chaos --batched [--session-resumption]
    PYTHONPATH=src python -m repro.faults.chaos --disk [--smoke]
    PYTHONPATH=src python -m repro.faults.chaos --fleet [--smoke]
    PYTHONPATH=src python -m repro.faults.chaos --clone [--smoke]

The five families:

* **messages** (default) — a fault-free probe records the complete message
  sequence of one enclave migration, a wave of one (local attestation,
  ``stage_out``, the ``flush_staged`` trigger, the ME-to-ME
  ``transfer_batch``, destination fetch, confirmation); every leg is then
  dropped, duplicated (request legs), or has the source/destination
  machine crash at that exact instant.
* **batched** — the same over a two-enclave ``migrate_group`` wave, whose
  one flush carries both records: mid-batch crashes and a sibling's parked
  record are reachable only here.
* **disk** — every persisted artifact (migration journals, the ME's A/B
  checkpoint, the sealed counter bundle, the app's sealed state) crossed
  with every disk fault kind (torn write, lost write, bit rot, stale read)
  at every protocol phase a matching disk op was observed in.  Recovery may
  heal from the storage archive within a bound, and the survivor must read
  back the newest sealed app state.
* **fleet** — a four-machine fleet of eight enclaves runs a multi-wave drain
  through :class:`~repro.fleet.service.FleetService`, and the planner is
  killed at every journal boundary (plus ``parked`` variants where the
  network blackholes the wave first, and pipelined dispatch).  A
  fresh planner must ``resume_plan()`` from the durable fleet journal alone,
  reach the planned placement and clear the journal.
* **clone** — the adversary of :mod:`repro.attacks.cloning` launches a
  second instance at every request leg of the guarded protocol (RESTORE
  window, double-joined wave, stale-ME-epoch session replay), optionally
  composed with a dropped message, and from healed disk images.  Every
  clone must be detected and fenced by the single-instance registry; the
  per-scenario detection latency (virtual seconds) is reported.

``--smoke`` keeps the first scenario per grid cell of the disk, fleet and
clone families; ``make ci`` runs that slice for disk and clone, and the
full fleet grid.  Exit status: 0 clean, 1 when a scenario violated an
invariant, 2 on a usage error.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import ClassVar, Protocol

from repro.apps.counter_app import MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import (
    MigratableApp,
    install_all_migration_enclaves,
    reinstall_migration_enclave,
)
from repro.core.result import MigrationOutcome
from repro.core.retry import RetryPolicy
from repro.errors import MigrationError, ReproError
from repro.faults.injector import FaultInjector, ObservedMessage
from repro.faults.plan import DISK_FAULT_KINDS, FaultPlan
from repro.fleet import FleetConstraints, FleetService
from repro.fleet.registry import SingleInstanceRegistry
from repro.sgx.identity import SigningKey

SOURCE = "machine-a"
DESTINATION = "machine-b"
#: The guarded world's control machine, whose disk holds the registry.
CONTROL = "machine-ctl"

#: The counter value the enclave reaches before migrating; R4 requires the
#: surviving instance to read back exactly this value.
COUNTER_TARGET = 3

#: Counter values for the two wave members in ``--batched`` sweeps; distinct
#: values so a cross-enclave state mix-up shows up as an R4 violation.
BATCH_COUNTER_TARGETS = (3, 5)

#: Small retry budget so scenarios where retries cannot help fail fast into
#: the resume path instead of burning sweep wall-clock.
SWEEP_POLICY = RetryPolicy(max_attempts=2, base_delay=0.05)

#: The fault kinds the sweep applies at every message position.  Duplicates
#: only make sense on request legs (the network layer re-delivers requests).
DEFAULT_KINDS = ("drop", "duplicate", "crash-source", "crash-dest")

#: Bounded self-healing: how many restore-newest-archive-and-retry rounds
#: recovery may take before the scenario counts as unrecoverable.
HEAL_ATTEMPTS = 3

#: Shared wording of the R3/R4 summary lines.
_R3_R4 = "(R3: never two live instances; R4: counters never regress)"


# -------------------------------------------------------------------- world
@dataclass
class World:
    """One freshly built data center: durable MEs on every machine and one
    counter enclave per app, app ``i`` serving tracked counter
    ``counter_ids[i]`` at ``counter_targets[i]``."""

    dc: DataCenter
    apps: list[MigratableApp]
    counter_ids: list[int]
    counter_targets: list[int]
    me_signer: SigningKey
    dev_key: SigningKey
    #: Prefix of the world's RNG child labels (``<label>-faults``, ...).
    label: str = "chaos"
    session_resumption: bool = False
    #: The single-instance registry of a guarded world.
    registry: SingleInstanceRegistry | None = None
    #: The control plane of a fleet world.
    service: FleetService | None = None

    @property
    def app(self) -> MigratableApp:
        return self.apps[0]

    @property
    def counter_id(self) -> int:
        return self.counter_ids[0]


def build_world(
    seed: int = 2018,
    session_resumption: bool = False,
    *,
    targets: tuple[int, ...] = (COUNTER_TARGET,),
    name: str = "chaos",
    label: str = "chaos",
    app_prefix: str | None = None,
    machines: tuple[str, ...] = (SOURCE, DESTINATION),
    guarded: bool = False,
    dispatch: str | None = None,
) -> World:
    """The world builder every family shares.

    Every machine gets a durable ME.  One :class:`MigratableBenchEnclave` app
    per entry of ``targets`` starts on the first machine (a fleet world
    places them round-robin) with its tracked counter at that target.  Apps
    are named ``<app_prefix>-vm-<i>`` / ``<app_prefix>-app-<i>``, or keep the
    SDK defaults when ``app_prefix`` is None.  ``guarded`` adds the
    :data:`CONTROL` machine with a :class:`SingleInstanceRegistry` that the
    MEs report to and the clone-guarded apps claim through; ``dispatch``
    registers the apps with a :class:`FleetService` of that dispatch mode.
    ``name`` seeds the data center and ``label`` its RNG children.
    """
    dc = DataCenter(name=name, seed=seed)
    for machine in machines:
        dc.add_machine(machine)
    registry = None
    if guarded:
        registry = SingleInstanceRegistry(dc.add_machine(CONTROL).storage, dc.meter)
    me_signer = SigningKey.generate(dc.rng.child(f"{label}-me-signer"))
    hosts = install_all_migration_enclaves(
        dc,
        me_signer,
        durable=True,
        session_resumption=session_resumption,
        registry=registry,
    )
    service = None
    if dispatch is not None:
        # Serial dispatch caps every wave at one move per machine, so the
        # drain has genuinely distinct wave boundaries to die at; the
        # overlapping modes lift the caps so the drain is ONE wave of several
        # destination groups, recorded and replayed on the scheduler.
        n_apps = len(targets)
        constraints = (
            FleetConstraints(machine_capacity=n_apps, max_moves_per_machine=1)
            if dispatch == "serial"
            else FleetConstraints(
                machine_capacity=n_apps,
                max_moves_per_machine=n_apps,
                tenant_wave_quota=n_apps,
            )
        )
        service = FleetService(
            dc=dc,
            hosts=hosts,
            constraints=constraints,
            retry_policy=SWEEP_POLICY,
            dispatch=dispatch,
        )
    dev_key = SigningKey.generate(dc.rng.child(f"{label}-dev"))
    homes = machines if service is not None else machines[:1]
    world = World(
        dc=dc,
        apps=[],
        counter_ids=[],
        counter_targets=list(targets),
        me_signer=me_signer,
        dev_key=dev_key,
        label=label,
        session_resumption=session_resumption,
        registry=registry,
        service=service,
    )
    for index, target in enumerate(targets):
        names = (
            {}
            if app_prefix is None
            else {
                "vm_name": f"{app_prefix}-vm-{index}",
                "app_name": f"{app_prefix}-app-{index}",
            }
        )
        app = MigratableApp.deploy(
            dc,
            dc.machine(homes[index % len(homes)]),
            MigratableBenchEnclave,
            dev_key,
            **names,
        )
        app.retry_policy = SWEEP_POLICY
        if registry is not None:
            app.registry = registry
            app.clone_guard = True
        enclave = app.start_new()
        # Counter ids are sequential *per enclave*, so every app would get
        # id 0; padding app ``index`` with ``index`` extra counters makes its
        # tracked id unique, letting the oracle attribute a surviving
        # instance to its app by the id set it serves.
        for _ in range(index):
            enclave.ecall("create_counter")
        counter_id, _ = enclave.ecall("create_counter")
        for _ in range(target):
            enclave.ecall("increment_counter", counter_id)
        if service is not None:
            service.register(
                app,
                tenant=f"tenant-{index % 2}",
                anti_affinity_group="chaos-pair" if index < 2 else None,
            )
        world.apps.append(app)
        world.counter_ids.append(counter_id)
    return world


def attach_injector(world: World, plan: FaultPlan) -> FaultInjector:
    """Put ``plan`` on the world's network, replacing any earlier injector;
    ``world.dc.network.fault_injector = None`` heals the network again."""
    injector = FaultInjector(
        plan=plan,
        rng=world.dc.rng.child(f"{world.label}-faults"),
        machines=dict(world.dc.machines),
        meter=world.dc.meter,
    )
    world.dc.network.fault_injector = injector
    return injector


def migrate(world: World, apps: list[MigratableApp]) -> tuple[str, bool]:
    """Move ``apps`` to :data:`DESTINATION`: one app by ``migrate`` (a wave
    of one), several as one ``migrate_group`` wave.  Returns the outcome
    (the members' outcomes joined by ``+``, or ``raised:<error>``) and
    whether all completed."""
    destination = world.dc.machine(DESTINATION)
    try:
        if len(apps) == 1:
            results = [apps[0].migrate(destination, migrate_vm=False)]
        else:
            results = MigratableApp.migrate_group(
                apps, destination, migrate_vm=False
            )
    except ReproError as exc:
        return f"raised:{type(exc).__name__}", False
    outcome = "+".join(result.outcome.value for result in results)
    return outcome, all(
        result.outcome is MigrationOutcome.COMPLETED for result in results
    )


def probe_trace(
    world: World, apps: list[MigratableApp] | None = None
) -> list[ObservedMessage]:
    """Message trace of one fault-free :func:`migrate` of ``apps`` (default:
    every app of the world)."""
    injector = attach_injector(world, FaultPlan())
    outcome, completed = migrate(world, apps or world.apps)
    world.dc.network.fault_injector = None
    if not completed:
        raise AssertionError(f"probe migration did not complete: {outcome}")
    return list(injector.trace)


def reinstall_me(world: World, machine: str):
    """Bring ``machine``'s ME back the way the world installed it; its
    durable checkpoint survives on disk."""
    return reinstall_migration_enclave(
        world.dc,
        world.dc.machine(machine),
        world.me_signer,
        durable=True,
        session_resumption=world.session_resumption,
        registry=world.registry,
    )


# ------------------------------------------------------------------- report
@dataclass
class ScenarioReport:
    """What one scenario did, whatever its family."""

    scenario: Scenario
    #: The faulted operation's outcome (the fleet family: the planner's).
    migrate_outcome: str = ""
    recovery_outcome: str = "not-needed"
    violations: list[str] = field(default_factory=list)
    timeline: list[str] = field(default_factory=list)
    #: Disk family: armed disk faults that fired, and unparseable journal
    #: reads on any disk.
    fired: int = 0
    corrupt_reads: int = 0
    #: Clone family: the clone's last launch result, whether the registry
    #: detected it (recorded an incident) and fenced it, and the virtual
    #: seconds from its first claim attempt to that incident (-1: never).
    clone_outcome: str = "not-attempted"
    detected: bool = False
    fenced: bool = False
    detection_latency: float = -1.0

    @property
    def ok(self) -> bool:
        return not self.violations


# ----------------------------------------------------------------- recovery
def recover(
    world: World,
    report: ScenarioReport,
    crashed: list[str] | tuple[str, ...] = (),
    heal: tuple[str, str] | None = None,
) -> None:
    """The one recovery routine: reinstall the ME on every crashed machine,
    then drive each app's journal forward.

    ``resume`` finishes an interrupted migration.  An app with no migration
    in progress already finished (the fault hit a sibling's leg); a live
    instance is accepted as is, a dead one (its new host crashed after the
    protocol ended) restarts from sealed state.  With ``heal=(machine,
    pattern)``, a step that dies with a typed error restores that artifact's
    newest archived version (the backup an operator would reach for) and
    retries, at most :data:`HEAL_ATTEMPTS` rounds.  Intermediate raises are
    fine; an app whose *last* step raised leaves the world unrecovered."""
    for name in crashed:
        reinstall_me(world, name)
    steps: list[str] = []
    failed = False
    for app in world.apps:
        app_steps = _recover_app(world, app, heal)
        steps.extend(app_steps)
        failed = failed or app_steps[-1].startswith("raised:")
    report.recovery_outcome = "+".join(steps)
    if failed:
        report.violations.append(f"recovery failed: {report.recovery_outcome}")


def _recover_app(
    world: World, app: MigratableApp, heal: tuple[str, str] | None
) -> list[str]:
    steps: list[str] = []
    for attempt in range(HEAL_ATTEMPTS if heal else 1):
        try:
            steps.append(app.resume(migrate_vm=False).outcome.value)
            return steps
        except MigrationError as exc:
            failure: ReproError = exc
            if "no migration in progress" in str(exc):
                if app.enclave is not None and app.enclave.alive:
                    steps.append("already-complete")
                    return steps
                try:
                    app.restart()
                    steps.append("restarted")
                    return steps
                except ReproError as restart_exc:
                    failure = restart_exc
        except ReproError as exc:
            failure = exc
        label = f"raised:{type(failure).__name__}"
        healed: list[str] = []
        if heal is not None:
            machine, pattern = heal
            healed = world.dc.machine(machine).storage.heal(pattern)
            if healed:
                label += f"->healed[{len(healed)}]"
                if "me_checkpoint" in pattern:
                    # A healed checkpoint only helps a *freshly booted* ME.
                    reinstall_me(world, machine)
        steps.append(label)
        if not healed and attempt > 0:
            break  # nothing left to heal and retrying alone did not help
    return steps


# ------------------------------------------------------------------- oracle
def serving_instances(world: World) -> list[list[tuple]]:
    """Per app, every operational instance as ``(enclave, counter value)``.

    An *operational instance* is a loaded, alive enclave of the application
    class that serves a tracked counter read; frozen, uninitialized or
    crashed instances refuse the read and do not count.  Every such enclave
    anywhere in the data center is probed (clones included), and it belongs
    to app ``i`` when it serves app ``i``'s tracked counter id but no
    *higher* tracked id (ids are padded to strictly increase across apps)."""
    readings: list[tuple] = []
    for machine in world.dc.machines.values():
        for enclave in machine.enclaves:
            if enclave.enclave_class is not MigratableBenchEnclave:
                continue
            if not enclave.alive:
                continue
            served: dict[int, int] = {}
            for counter_id in world.counter_ids:
                try:
                    served[counter_id] = enclave.ecall("read_counter", counter_id)
                except ReproError:
                    continue
            if served:
                readings.append((enclave, served))
    per_app: list[list[tuple]] = []
    for index, counter_id in enumerate(world.counter_ids):
        higher = set(world.counter_ids[index + 1 :])
        per_app.append(
            [
                (enclave, served[counter_id])
                for enclave, served in readings
                if counter_id in served and not (higher & served.keys())
            ]
        )
    return per_app


def check_invariants(world: World) -> list[str]:
    """The one R3/R4 oracle, via ECALLs only: each app's counter must be
    served by exactly one operational instance, and *every* serving
    instance must read back exactly the app's pre-migration value."""
    violations: list[str] = []
    for index, serving in enumerate(serving_instances(world)):
        label = f"enclave {index}"
        target = world.counter_targets[index]
        if len(serving) > 1:
            violations.append(
                f"R3: {len(serving)} operational instances serve {label}"
            )
        if not serving:
            violations.append(f"liveness: no operational instance serves {label}")
        for _, value in serving:
            if value < target:
                violations.append(
                    f"R4: {label} counter regressed to {value} (expected {target})"
                )
            elif value > target:
                violations.append(
                    f"{label} counter advanced to {value} without increments "
                    f"(expected {target})"
                )
    return violations


# --------------------------------------------------------------------- loop
class Scenario(Protocol):
    """One grid point of a fault family.

    Implementations are frozen dataclasses whose fields are the grid
    coordinates.  ``build`` makes a fresh :class:`World` (one
    :func:`build_world` call plus any pre-fault setup); ``run`` attaches the
    fault plan, drives the faulted operation, recovers, and records the
    outcomes and any check only its family needs.  ``row`` formats the
    scenario's CLI line; the classmethods ``header`` and ``summary`` frame
    the whole sweep.  ``--smoke`` keeps the first scenario per ``cell`` of
    families with a ``smoke_note``.
    """

    smoke_note: ClassVar[str]

    @property
    def cell(self) -> tuple: ...

    def build(self, seed: int) -> World: ...

    def run(self, world: World, report: ScenarioReport) -> None: ...

    def row(self, report: ScenarioReport) -> str: ...

    @classmethod
    def header(cls, scenarios: list, seed: int) -> str: ...

    @classmethod
    def summary(cls, reports: list[ScenarioReport]) -> list[str]: ...


def run_scenario(scenario: Scenario, seed: int = 2018) -> ScenarioReport:
    """Fresh world, the scenario's faulted run and recovery, then the oracle."""
    world = scenario.build(seed)
    report = ScenarioReport(scenario)
    scenario.run(world, report)
    report.violations.extend(check_invariants(world))
    return report


def sweep(
    scenarios: list, seed: int = 2018, smoke: bool = False
) -> list[ScenarioReport]:
    """Run every scenario; ``smoke`` keeps the first scenario per cell of a
    family that has a smoke slice."""
    if smoke and scenarios and scenarios[0].smoke_note:
        first: dict[tuple, Scenario] = {}
        for scenario in scenarios:
            first.setdefault(scenario.cell, scenario)
        scenarios = list(first.values())
    return [run_scenario(scenario, seed) for scenario in scenarios]


def _failures(reports: list[ScenarioReport]) -> int:
    return sum(1 for report in reports if not report.ok)


# ----------------------------------------------------------------- messages
@dataclass(frozen=True)
class MessageScenario:
    """One (message leg, fault kind) cell of a migration, or of a
    two-enclave wave when ``batched``.

    Drop/crash rules match every leg and fire on the ``seq``-th occurrence,
    which with a wildcard predicate is exactly the probe's global sequence
    number; duplicate rules match request legs only, so they count by the
    request's ordinal among requests."""

    kind: str
    seq: int
    msg_type: str | None
    direction: str
    request_ordinal: int
    batched: bool = False
    session_resumption: bool = False

    smoke_note = ""

    @property
    def cell(self) -> tuple:
        return ()

    def build(self, seed: int) -> World:
        return _message_world(seed, self.session_resumption, self.batched)

    def run(self, world: World, report: ScenarioReport) -> None:
        crashed = {"crash-source": [SOURCE], "crash-dest": [DESTINATION]}.get(
            self.kind, []
        )
        plan = FaultPlan()
        if self.kind == "drop":
            plan.drop(nth=self.seq)
        elif self.kind == "duplicate":
            plan.duplicate(direction="request", nth=self.request_ordinal)
        elif crashed:
            plan.crash_machine(crashed[0], nth=self.seq)
        else:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        attach_injector(world, plan)
        report.migrate_outcome, completed = migrate(world, world.apps)
        # The fault window is over: the operator reinstalls the ME on any
        # crashed machine and every member's journal is driven individually
        # (a crash mid-batch must leave each transaction resumable).
        world.dc.network.fault_injector = None
        if not completed:
            recover(world, report, crashed)

    def row(self, report: ScenarioReport) -> str:
        step = f"{self.msg_type or 'reply'}/{self.direction}"
        return (
            f"seq {self.seq:>2} {step:<22} {self.kind:<13} "
            f"migrate={report.migrate_outcome:<28} "
            f"recovery={report.recovery_outcome}"
        )

    @classmethod
    def header(cls, scenarios: list, seed: int) -> str:
        first = scenarios[0]
        shape = "wave (batched)" if first.batched else "migration"
        mode = "on" if first.session_resumption else "off"
        legs = len({scenario.seq for scenario in scenarios})
        return (
            f"{shape} message sequence: {legs} legs "
            f"(seed {seed}, session resumption {mode})"
        )

    @classmethod
    def summary(cls, reports: list[ScenarioReport]) -> list[str]:
        return [
            f"{len(reports)} scenarios, {_failures(reports)} invariant "
            f"violations {_R3_R4}"
        ]


def _message_world(seed: int, session_resumption: bool, batched: bool) -> World:
    """One enclave at :data:`COUNTER_TARGET` on the source, or (batched) two
    at :data:`BATCH_COUNTER_TARGETS` staged for one wave."""
    if batched:
        return build_world(
            seed,
            session_resumption,
            targets=BATCH_COUNTER_TARGETS,
            app_prefix="chaos",
        )
    return build_world(seed, session_resumption)


def probe_message_sequence(
    seed: int = 2018, session_resumption: bool = False, batched: bool = False
) -> list[ObservedMessage]:
    """Record the full message trace of one fault-free migration (or wave)."""
    return probe_trace(_message_world(seed, session_resumption, batched))


def enumerate_message_scenarios(
    seed: int = 2018,
    session_resumption: bool = False,
    batched: bool = False,
    kinds: tuple[str, ...] = DEFAULT_KINDS,
) -> list[MessageScenario]:
    """Every message of the migration (or wave) sequence under every fault
    kind."""
    scenarios: list[MessageScenario] = []
    request_ordinal = 0
    for leg in probe_message_sequence(seed, session_resumption, batched):
        for kind in kinds:
            if kind == "duplicate" and leg.direction != "request":
                continue
            scenarios.append(
                MessageScenario(
                    kind,
                    leg.seq,
                    leg.msg_type,
                    leg.direction,
                    request_ordinal,
                    batched,
                    session_resumption,
                )
            )
        if leg.direction == "request":
            request_ordinal += 1
    return scenarios


# --------------------------------------------------------------------- disk
#: Every persisted artifact of one migration, as ``(name, machine, glob)``.
#: The glob covers the blob itself plus its rename temps, A/B slots, and
#: pointer record, so a fault can land on any piece of the write protocol.
DISK_ARTIFACTS = (
    ("journal-source", SOURCE, "app/migration_txn*"),
    ("journal-dest", DESTINATION, "app/migration_txn*"),
    ("me-checkpoint-source", SOURCE, "migration-service/me_checkpoint*"),
    ("me-checkpoint-dest", DESTINATION, "migration-service/me_checkpoint*"),
    ("counter-bundle-source", SOURCE, "app/miglib_state*"),
    ("counter-bundle-dest", DESTINATION, "app/miglib_state*"),
    ("app-state", SOURCE, "app/app_state*"),
)

#: Sealed application-state blob (the "persistent state" the paper migrates):
#: v1 lands before the fault window opens, v2 inside it, and the sweep's
#: final check demands that the surviving instance read back **v2** — a torn
#: or rotted blob must be healable, and a stale read must not stick.
APP_STATE_PATH = "app_state"
APP_STATE_V1 = b"app-state-v1"
APP_STATE_V2 = b"app-state-v2-durable"


def _store_app_state(world: World, plaintext: bytes) -> None:
    blob = world.app.enclave.ecall("seal", plaintext)
    world.app.app.store(APP_STATE_PATH, blob)


def _all_storages(world: World) -> list:
    return [machine.storage for machine in world.dc.machines.values()]


@dataclass(frozen=True)
class DiskScenario:
    """One planned disk-fault experiment: arm ``kind`` on the ``nth``
    matching storage op of ``pattern`` on ``machine``; for write-side kinds
    (whose damage only materializes at power loss) also crash that machine
    at message leg ``crash_at`` — or right after the protocol
    (``post_crash``) when no leg follows the marked write."""

    artifact: str
    machine: str
    pattern: str
    kind: str
    phase: str
    nth: int
    crash_at: int | None
    post_crash: bool

    smoke_note = " (smoke slice: first scenario per cell)"

    @property
    def cell(self) -> tuple:
        return (self.artifact, self.kind)

    def build(self, seed: int) -> World:
        world = build_world(seed)
        _store_app_state(world, APP_STATE_V1)
        return world

    def run(self, world: World, report: ScenarioReport) -> None:
        plan = FaultPlan()
        getattr(plan, self.kind)(self.pattern, machine=self.machine, nth=self.nth)
        if self.crash_at is not None:
            plan.crash_machine(self.machine, nth=self.crash_at)
        storages = _all_storages(world)
        injector = attach_injector(world, plan)
        injector.attach_disk(storages)
        _store_app_state(world, APP_STATE_V2)
        report.migrate_outcome, completed = migrate(world, world.apps)
        world.dc.network.fault_injector = None
        if self.post_crash:
            # The marked write had no later protocol step to crash at: pull
            # the plug the instant the protocol finishes.
            world.dc.machine(self.machine).crash()
            completed = False
        if DISK_FAULT_KINDS[self.kind] != "read":
            # Write-side damage is already recorded in the storage state; the
            # disk hook stays attached only for read kinds, whose whole point
            # is that *recovery* reads through the armed fault.
            injector.detach_disk(storages)
        if not completed:
            crashed = self.crash_at is not None or self.post_crash
            recover(
                world,
                report,
                [self.machine] if crashed else [],
                heal=(self.machine, self.pattern),
            )
        report.fired = len(injector.disk_fired)
        report.corrupt_reads = sum(
            machine.storage.journal_corruption_count
            for machine in world.dc.machines.values()
        )
        report.violations.extend(_check_app_state(world))
        injector.detach_disk(storages)

    def row(self, report: ScenarioReport) -> str:
        extras = (
            f" corrupt-reads={report.corrupt_reads}" if report.corrupt_reads else ""
        )
        return (
            f"{self.artifact:<20} {self.kind:<11} @ {self.phase:<24} "
            f"fired={report.fired} migrate={report.migrate_outcome:<28} "
            f"recovery={report.recovery_outcome}{extras}"
        )

    @classmethod
    def header(cls, scenarios: list, seed: int) -> str:
        return (
            f"disk fault sweep: {len(scenarios)} scenarios over "
            f"{len(DISK_ARTIFACTS)} artifacts x {len(DISK_FAULT_KINDS)} fault "
            f"kinds (seed {seed})"
        )

    @classmethod
    def summary(cls, reports: list[ScenarioReport]) -> list[str]:
        failures = _failures(reports)
        if failures:
            return [f"{len(reports)} scenarios, {failures} invariant violations"]
        unfired = sum(1 for report in reports if not report.fired)
        return [
            f"{len(reports)} scenarios, 0 invariant violations, {unfired} armed "
            f"faults never reached (R3/R4 intact and world recoverable in "
            f"every scenario)"
        ]


def _check_app_state(world: World) -> list[str]:
    """The sealed app blob must decrypt, on the one surviving instance, to
    the *newest* write — healing the disk when the fault ate it.  Skipped
    when R3/liveness already failed (those violations say it all)."""
    serving = serving_instances(world)[0]
    if len(serving) != 1:
        return []
    enclave = serving[0][0]
    storage = world.dc.machine(SOURCE).storage
    path = f"app/{APP_STATE_PATH}"
    failure = "app state: never checked"
    for _ in range(HEAL_ATTEMPTS):
        try:
            plaintext, _ = enclave.ecall("unseal", storage.read(path))
            if plaintext == APP_STATE_V2:
                return []
            failure = "app state reads back an old version, not the newest write"
        except ReproError as exc:
            failure = f"app state unreadable: {type(exc).__name__}"
        storage.heal(f"{path}*")
    return [failure]


def _phase_of(msg_seq: int, trace: list[ObservedMessage]) -> str:
    """Label a disk op by the protocol step it happened inside.

    An op whose next leg is a bare reply ran *inside the handler* of the
    preceding request (e.g. an ME checkpoint write), so it is labelled by
    that request's message type rather than the anonymous reply."""
    if msg_seq <= 0:
        return "pre-protocol"
    if msg_seq >= len(trace):
        return "post-protocol"
    leg = trace[msg_seq]
    if leg.msg_type is None and leg.direction == "response":
        prev = trace[msg_seq - 1]
        return f"{prev.msg_type or 'reply'}/handling"
    return f"{leg.msg_type or 'reply'}/{leg.direction}"


def probe_disk_operations(seed: int = 2018) -> tuple[list[ObservedMessage], list]:
    """Fault-free run of the disk scenario script: seal v1, open the fault
    window, seal v2, migrate, read the app blob back.  Returns the message
    trace and every disk op observed inside the window."""
    world = build_world(seed)
    _store_app_state(world, APP_STATE_V1)
    storages = _all_storages(world)
    injector = attach_injector(world, FaultPlan())
    injector.attach_disk(storages)
    _store_app_state(world, APP_STATE_V2)
    outcome, completed = migrate(world, world.apps)
    if not completed:
        raise AssertionError(f"disk probe migration did not complete: {outcome}")
    # The verification read is part of the probed script, so read-kind
    # scenarios can target it (phase "post-protocol").
    world.dc.machine(SOURCE).storage.read(f"app/{APP_STATE_PATH}")
    world.dc.network.fault_injector = None
    injector.detach_disk(storages)
    return list(injector.trace), list(injector.disk_trace)


def enumerate_disk_scenarios(seed: int = 2018) -> list[DiskScenario]:
    """Cross every persisted artifact with every disk fault kind, one
    scenario per distinct protocol phase the probe saw a matching op in.

    Artifacts that are never *read* inside the protocol (the ME checkpoint,
    the sealed counter bundle — both only read while recovering) get
    recovery-forced read scenarios instead: arm the fault on the first
    matching read and crash the artifact's machine at each distinct
    protocol step, so recovery itself must read through the damage.
    """
    trace, disk_ops = probe_disk_operations(seed)
    anchors: list[ObservedMessage] = []
    seen_types: set[str] = set()
    for leg in trace:
        if leg.direction != "request" or leg.msg_type is None:
            continue
        if leg.msg_type in seen_types:
            continue
        seen_types.add(leg.msg_type)
        anchors.append(leg)
    scenarios: list[DiskScenario] = []
    for artifact, machine, pattern in DISK_ARTIFACTS:
        for kind, op_name in DISK_FAULT_KINDS.items():
            ops = [
                op
                for op in disk_ops
                if op.op == op_name
                and op.machine == machine
                and fnmatch(op.path, pattern)
            ]
            seen_phases: set[str] = set()
            for ordinal, op in enumerate(ops):
                phase = _phase_of(op.msg_seq, trace)
                if phase in seen_phases:
                    continue
                seen_phases.add(phase)
                needs_crash = kind in ("torn_write", "lost_write")
                crash_at = (
                    op.msg_seq if needs_crash and op.msg_seq < len(trace) else None
                )
                scenarios.append(
                    DiskScenario(
                        artifact=artifact,
                        machine=machine,
                        pattern=pattern,
                        kind=kind,
                        phase=phase,
                        nth=ordinal,
                        crash_at=crash_at,
                        post_crash=needs_crash and crash_at is None,
                    )
                )
            if not seen_phases and op_name == "read":
                for leg in anchors:
                    scenarios.append(
                        DiskScenario(
                            artifact=artifact,
                            machine=machine,
                            pattern=pattern,
                            kind=kind,
                            phase=f"recovery@{leg.msg_type}",
                            nth=0,
                            crash_at=leg.seq,
                            post_crash=False,
                        )
                    )
    covered = {scenario.cell for scenario in scenarios}
    missing = [
        (artifact, kind)
        for artifact, _, _ in DISK_ARTIFACTS
        for kind in DISK_FAULT_KINDS
        if (artifact, kind) not in covered
    ]
    if missing:
        raise AssertionError(f"disk sweep lost (artifact, kind) coverage: {missing}")
    return scenarios


# -------------------------------------------------------------------- fleet
FLEET_MACHINES = 4
FLEET_APPS = 8
FLEET_DRAIN_TARGET = "fleet-0"

#: :func:`build_world` layout of the fleet world: app ``i`` starts on
#: ``fleet-<i mod FLEET_MACHINES>`` with its counter at ``2 + i``.
FLEET_WORLD = dict(
    targets=tuple(2 + index for index in range(FLEET_APPS)),
    name="chaos-fleet",
    app_prefix="chaos-fleet",
    machines=tuple(f"fleet-{index}" for index in range(FLEET_MACHINES)),
)


class _PlannerKilled(Exception):
    """The simulated planner-process death (not a ReproError: the planner
    dying is an infrastructure event, not a protocol outcome)."""


@dataclass(frozen=True)
class FleetScenario:
    """Kill the planner at one boundary: ``stage`` names it (``planned``,
    ``started``, ``group``, ``dispatched``, ``done``, ``complete``),
    ``wave`` the wave index (-1 for the plan-level boundaries), ``skip``
    how many matching boundaries to let pass first (so a multi-group wave
    can die between its second and third group, not only its first).
    ``parked`` additionally blackholes the network from the wave's start,
    so the planner dies on top of members whose transactions are stuck
    mid-flight.  ``dispatch`` picks the world variant to kill: serial
    caps force the drain into several waves, while pipelined dispatch
    drains in ONE wave of several destination groups, so the planner dies
    between group dispatches."""

    stage: str
    wave: int
    parked: bool = False
    dispatch: str = "serial"
    skip: int = 0

    smoke_note = " (smoke slice: first scenario per boundary kind)"

    @property
    def label(self) -> str:
        suffix = f"#{self.skip + 1}" if self.skip else ""
        if self.parked:
            suffix += "+parked"
        if self.dispatch != "serial":
            suffix += f"+{self.dispatch}"
        return f"{self.stage}:{self.wave}{suffix}"

    @property
    def cell(self) -> tuple:
        return (self.stage, self.parked, self.dispatch)

    def build(self, seed: int) -> World:
        return build_world(seed, dispatch=self.dispatch, **FLEET_WORLD)

    def run(self, world: World, report: ScenarioReport) -> None:
        """Drain plan, planner killed at the boundary, a fresh planner
        resumes from the durable fleet journal; then every member must sit
        at its planned destination and the journal must be cleared."""
        dc, service = world.dc, world.service
        plan = service.plan_drain(FLEET_DRAIN_TARGET)
        matched = 0

        def boundary_hook(stage: str, wave: int) -> None:
            nonlocal matched
            if self.parked and stage == "started" and wave == self.wave:
                attach_injector(world, FaultPlan().drop(max_triggers=1_000_000))
            if stage == self.stage and wave == self.wave:
                matched += 1
                if matched > self.skip:
                    raise _PlannerKilled(self.label)

        try:
            service.apply(plan, boundary_hook=boundary_hook)
            report.migrate_outcome = "completed-unexpectedly"
            report.violations.append("planner kill hook never fired")
        except _PlannerKilled:
            report.migrate_outcome = f"killed@{self.label}"
        except ReproError as exc:
            report.migrate_outcome = f"raised:{type(exc).__name__}"
        finally:
            # The planner is dead; the network partition (if any) heals
            # before the operator restarts it.
            dc.network.fault_injector = None

        # Planner restart: a brand-new service over the same data center
        # (same durable disks, same member registry) — nothing survives from
        # the dead process but what the fleet journal persisted.
        restarted = FleetService(
            dc=dc,
            hosts=service.hosts,
            constraints=service.constraints,
            retry_policy=SWEEP_POLICY,
            members=dict(service.members),
            dispatch=service.dispatch,
        )
        try:
            result = restarted.resume_plan()
            report.recovery_outcome = (
                f"resumed:{len(result.waves)}-waves"
                f"+{result.skipped_waves}-skipped"
            ) + ("" if result.completed else ":INCOMPLETE")
        except ReproError as exc:
            report.recovery_outcome = f"raised:{type(exc).__name__}"
        if report.recovery_outcome.startswith(
            "raised:"
        ) or report.recovery_outcome.endswith(":INCOMPLETE"):
            report.violations.append(f"recovery failed: {report.recovery_outcome}")
        for move in plan.moves:
            actual = service.members[move.app_name].machine
            if actual != move.destination:
                report.violations.append(
                    f"placement: {move.app_name} at {actual}, "
                    f"plan said {move.destination}"
                )
        if restarted.journal().read() is not None:
            report.violations.append("fleet journal not cleared after resume")

    def row(self, report: ScenarioReport) -> str:
        return (
            f"kill@{self.label:<20} apply={report.migrate_outcome:<28} "
            f"recovery={report.recovery_outcome}"
        )

    @classmethod
    def header(cls, scenarios: list, seed: int) -> str:
        return (
            f"fleet planner-kill sweep: {len(scenarios)} boundaries over a "
            f"{FLEET_MACHINES}-machine / {FLEET_APPS}-enclave drain (seed {seed})"
        )

    @classmethod
    def summary(cls, reports: list[ScenarioReport]) -> list[str]:
        return [
            f"{len(reports)} scenarios, {_failures(reports)} invariant violations "
            f"(R3/R4 per member, planned placement reached, journal cleared)"
        ]


def enumerate_fleet_scenarios(seed: int = 2018) -> list[FleetScenario]:
    """One scenario per journal boundary of the drain plan, plus a parked
    variant per wave, plus pipelined-dispatch variants where the planner
    dies mid-overlapping-wave — at every wave boundary and between the
    per-group journal boundaries the record phase writes."""
    world = build_world(seed, dispatch="serial", **FLEET_WORLD)
    n_waves = len(world.service.plan_drain(FLEET_DRAIN_TARGET).waves)
    scenarios = [FleetScenario("planned", -1)]
    for wave in range(n_waves):
        scenarios.append(FleetScenario("started", wave))
        scenarios.append(FleetScenario("dispatched", wave, parked=True))
        scenarios.append(FleetScenario("dispatched", wave))
        scenarios.append(FleetScenario("done", wave))
    scenarios.append(FleetScenario("complete", -1))
    scenarios.append(FleetScenario("started", 0, dispatch="pipelined"))
    scenarios.append(FleetScenario("group", 0, dispatch="pipelined"))
    scenarios.append(FleetScenario("group", 0, skip=1, dispatch="pipelined"))
    scenarios.append(
        FleetScenario("dispatched", 0, parked=True, dispatch="pipelined")
    )
    scenarios.append(FleetScenario("dispatched", 0, dispatch="pipelined"))
    scenarios.append(FleetScenario("done", 0, dispatch="pipelined"))
    return scenarios


# -------------------------------------------------------------------- clone
@dataclass(frozen=True)
class CloneScenario:
    """One scripted cloning-campaign experiment: launch the clone at
    message ``window_seq`` of the victim protocol (``window`` is its
    human-readable label), optionally composing a network ``fault`` at
    ``fault_seq``.  Healed-disk campaigns have no message window
    (``window_seq`` is -1); their ``window`` names the healed artifact."""

    campaign: str
    window: str
    window_seq: int
    fault: str
    fault_seq: int

    smoke_note = " (smoke slice: first scenario per campaign x fault cell)"

    @property
    def cell(self) -> tuple:
        return (self.campaign, self.fault)

    def build(self, seed: int) -> World:
        from repro.attacks import cloning

        return cloning.campaign_world(self.campaign, seed)

    def run(self, world: World, report: ScenarioReport) -> None:
        from repro.attacks import cloning

        cloning.run_campaign(self, world, report)

    def row(self, report: ScenarioReport) -> str:
        fate = "fenced" if report.fenced else (
            "detected" if report.detected else "UNDETECTED"
        )
        latency = (
            f"latency={report.detection_latency:.6f}s"
            if report.detected and report.detection_latency >= 0
            else "latency=n/a"
        )
        return (
            f"{self.campaign:<20} window={self.window:<16} fault={self.fault:<5} "
            f"clone={report.clone_outcome:<28} {fate:<10} {latency}"
        )

    @classmethod
    def header(cls, scenarios: list, seed: int) -> str:
        return (
            f"cloning-campaign sweep: {len(scenarios)} scenarios "
            f"(campaign x protocol window x fault, seed {seed})"
        )

    @classmethod
    def summary(cls, reports: list[ScenarioReport]) -> list[str]:
        lines = []
        latencies = [
            report.detection_latency
            for report in reports
            if report.detected and report.detection_latency >= 0
        ]
        if latencies:
            lines.append(
                f"detection latency (virtual): mean "
                f"{sum(latencies) / len(latencies):.6f}s, "
                f"max {max(latencies):.6f}s over {len(latencies)} detections"
            )
        detected = sum(1 for report in reports if report.detected)
        fenced = sum(1 for report in reports if report.fenced)
        lines.append(
            f"{len(reports)} scenarios, {detected} clones detected, "
            f"{fenced} fenced, {_failures(reports)} invariant violations {_R3_R4}"
        )
        return lines


def enumerate_clone_scenarios(seed: int = 2018) -> list[CloneScenario]:
    """The full clone-campaign grid for one seed.

    Every *request* leg of the guarded probe traces is a cloning window
    (replies deliver into a blocked sender, so the request positions are
    where a host-controlled adversary can act).  Drop variants re-race the
    same window while an earlier protocol leg is lost and the retry/resume
    machinery is mid-recovery; the healed-disk campaign crosses its three
    artifacts with a clean and a lossy network.
    """
    from repro.attacks import cloning

    scenarios: list[CloneScenario] = []
    for campaign in ("restore-window", "wave-double-join", "stale-session-replay"):
        legs = [
            leg
            for leg in cloning.probe_window_trace(campaign, seed)
            if leg.direction == "request"
        ]
        for index, leg in enumerate(legs):
            label = f"{leg.seq}:{leg.msg_type or 'msg'}"
            scenarios.append(CloneScenario(campaign, label, leg.seq, "none", -1))
            if index > 0 and campaign != "stale-session-replay":
                scenarios.append(
                    CloneScenario(campaign, label, leg.seq, "drop", legs[index - 1].seq)
                )
    for window in ("tombstone-heal", "replay-prefreeze", "me-checkpoint"):
        for fault in ("none", "drop"):
            scenarios.append(CloneScenario("healed-disk", window, -1, fault, -1))
    return scenarios


# ---------------------------------------------------------------------- CLI
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.chaos",
        description=(
            "Sweep faults over the migration protocol and check R3/R4 after "
            "recovery (default family: every message of one migration)."
        ),
    )
    parser.add_argument("seed", nargs="?", type=int, default=2018)
    family = parser.add_mutually_exclusive_group()
    for flag, help_text in (
        ("batched", "every message of a two-enclave migration wave"),
        ("disk", "every disk fault on every persisted artifact"),
        ("fleet", "planner kills at every fleet journal boundary"),
        ("clone", "cloning campaigns against the single-instance registry"),
    ):
        family.add_argument(
            f"--{flag}", dest="family", action="store_const", const=flag,
            help=help_text,
        )
    parser.add_argument(
        "--session-resumption",
        action="store_true",
        help="message families: MEs cache attested sessions",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="disk/fleet/clone: only the first scenario per grid cell",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.family in (None, "batched"):
        scenarios: list = enumerate_message_scenarios(
            args.seed, args.session_resumption, batched=args.family == "batched"
        )
    else:
        enumerate_family = {
            "disk": enumerate_disk_scenarios,
            "fleet": enumerate_fleet_scenarios,
            "clone": enumerate_clone_scenarios,
        }[args.family]
        scenarios = enumerate_family(args.seed)
    family = type(scenarios[0])
    print(
        family.header(scenarios, args.seed)
        + (family.smoke_note if args.smoke else "")
    )
    reports = sweep(scenarios, args.seed, smoke=args.smoke)
    for report in reports:
        marker = "FAIL" if report.violations else "ok"
        print(f"  [{marker:>4}] {report.scenario.row(report)}")
        for violation in report.violations:
            print(f"         !! {violation}")
    for line in family.summary(reports):
        print(line)
    return 1 if _failures(reports) else 0


if __name__ == "__main__":
    raise SystemExit(main())
