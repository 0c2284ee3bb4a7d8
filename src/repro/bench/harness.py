"""Experiment harness: builds worlds, times ECALLs on the virtual clock.

The paper times ECALLs with a wall clock on SGX hardware; we time the same
ECALLs on the simulation's virtual clock (see :mod:`repro.sim.costs` for the
calibration).  Each experiment below mirrors the paper's measurement
procedure — e.g. Fig. 3/4 "started the enclave, measured the initialization
of a new library buffer, restarted the enclave, and measured the other
ECALLs", repeated 1000 times.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.apps.counter_app import BaselineBenchEnclave, MigratableBenchEnclave
from repro.cloud.datacenter import DataCenter
from repro.cloud.network import Endpoint
from repro.cloud.machine import PhysicalMachine
from repro.core.migration_library import InitState
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.sgx.enclave import Enclave
from repro.sgx.identity import SigningKey

DEFAULT_REPS = 1000


@dataclass
class BenchWorld:
    """A two-machine data center with MEs and both bench enclaves."""

    dc: DataCenter
    machine_a: PhysicalMachine
    machine_b: PhysicalMachine
    signing_key: SigningKey
    # Populated by build_bench_world immediately after construction; None
    # only during that window, so the hints say so.
    miglib_app: MigratableApp | None = None
    miglib_enclave: Enclave | None = None
    baseline_enclave: Enclave | None = None
    extra: dict = field(default_factory=dict)

    def elapse(self, fn, *args, **kwargs) -> tuple[float, object]:
        """Run ``fn`` and return (virtual seconds elapsed, result)."""
        start = self.dc.clock.now
        result = fn(*args, **kwargs)
        return self.dc.clock.now - start, result


def build_bench_world(seed: int = 0) -> BenchWorld:
    """Standard benchmark environment (deterministic under ``seed``)."""
    dc = DataCenter(name="bench", seed=seed)
    machine_a = dc.add_machine("machine-a")
    machine_b = dc.add_machine("machine-b")
    install_all_migration_enclaves(dc)
    signing_key = SigningKey.generate(dc.rng.child("bench-dev"))

    world = BenchWorld(
        dc=dc, machine_a=machine_a, machine_b=machine_b, signing_key=signing_key
    )
    world.miglib_app = MigratableApp.deploy(
        dc, machine_a, MigratableBenchEnclave, signing_key, vm_name="bench-vm"
    )
    world.miglib_enclave = world.miglib_app.start_new()

    baseline_vm = machine_a.create_vm("baseline-vm")
    baseline_app = baseline_vm.launch_application("baseline")
    world.baseline_enclave = baseline_app.launch_enclave(BaselineBenchEnclave, signing_key)
    return world


# --------------------------------------------------------------------- Fig 3
FIG3_OPERATIONS = ("create", "increment", "read", "destroy")


def run_fig3(reps: int = DEFAULT_REPS, seed: int = 0) -> dict[str, dict[str, list[float]]]:
    """Counter-operation durations, migration library vs baseline.

    Per repetition: create a counter, increment it, read it, destroy it —
    timing each ECALL — for both enclaves.  Returns
    ``{operation: {"miglib": samples, "baseline": samples}}``.
    """
    world = build_bench_world(seed)
    results: dict[str, dict[str, list[float]]] = {
        op: {"miglib": [], "baseline": []} for op in FIG3_OPERATIONS
    }

    # Both enclaves expose the same counter ECALLs, so one loop serves both;
    # the miglib reps still run (in full) before the baseline reps, keeping
    # the virtual-clock schedule identical to the original two-loop version.
    for variant, enclave in (
        ("miglib", world.miglib_enclave),
        ("baseline", world.baseline_enclave),
    ):
        for _ in range(reps):
            duration, (counter_id, _) = world.elapse(enclave.ecall, "create_counter")
            results["create"][variant].append(duration)
            duration, _ = world.elapse(enclave.ecall, "increment_counter", counter_id)
            results["increment"][variant].append(duration)
            duration, _ = world.elapse(enclave.ecall, "read_counter", counter_id)
            results["read"][variant].append(duration)
            duration, _ = world.elapse(enclave.ecall, "destroy_counter", counter_id)
            results["destroy"][variant].append(duration)
    return results


# --------------------------------------------------------------------- Fig 4
FIG4_SIZES = (100, 100_000)  # the paper's "100/100kB" payloads


def run_fig4_init(reps: int = DEFAULT_REPS, seed: int = 0) -> dict[str, list[float]]:
    """Library initialization: new buffer vs restore (no baseline exists)."""
    world = build_bench_world(seed)
    dc, machine = world.dc, world.machine_a
    results: dict[str, list[float]] = {"init_new": [], "init_restore": []}
    vm = machine.create_vm("init-bench-vm")
    app = vm.launch_application("init-bench")

    for index in range(reps):
        enclave = app.launch_enclave(MigratableBenchEnclave, world.signing_key)
        enclave.register_ocall(
            "send_to_me", lambda addr, p: app.send(str(Endpoint.me(addr)), p)
        )
        enclave.register_ocall("save_library_state", lambda blob: None)
        duration, buffer = world.elapse(
            enclave.ecall, "migration_init", None, InitState.NEW.name, machine.address
        )
        results["init_new"].append(duration)
        enclave.destroy()
        machine.on_enclave_destroyed(enclave)

        enclave = app.launch_enclave(MigratableBenchEnclave, world.signing_key)
        enclave.register_ocall(
            "send_to_me", lambda addr, p: app.send(str(Endpoint.me(addr)), p)
        )
        enclave.register_ocall("save_library_state", lambda blob: None)
        duration, _ = world.elapse(
            enclave.ecall, "migration_init", buffer, InitState.RESTORE.name, machine.address
        )
        results["init_restore"].append(duration)
        enclave.destroy()
        machine.on_enclave_destroyed(enclave)
    return results


def run_fig4_sealing(
    reps: int = DEFAULT_REPS, sizes: tuple[int, ...] = FIG4_SIZES, seed: int = 0
) -> dict[str, dict[str, list[float]]]:
    """Seal/unseal durations at each payload size, miglib vs baseline.

    Returns ``{f"{op}_{size}": {"miglib": [...], "baseline": [...]}}``.
    """
    world = build_bench_world(seed)
    results: dict[str, dict[str, list[float]]] = {}
    payloads = {size: bytes(size) for size in sizes}

    for size in sizes:
        for op in ("seal", "unseal"):
            results[f"{op}_{size}"] = {"miglib": [], "baseline": []}

    for variant, enclave in (
        ("miglib", world.miglib_enclave),
        ("baseline", world.baseline_enclave),
    ):
        for size in sizes:
            for _ in range(reps):
                duration, blob = world.elapse(enclave.ecall, "seal", payloads[size])
                results[f"seal_{size}"][variant].append(duration)
                duration, _ = world.elapse(enclave.ecall, "unseal", blob)
                results[f"unseal_{size}"][variant].append(duration)
    return results


# ---------------------------------------------------------------- migration
def run_migration_bench(
    reps: int = 100, num_counters: int = 1, seed: int = 0, with_vm: bool = False
) -> dict[str, list[float]]:
    """End-to-end enclave migration overhead (Section VII-B, ~0.47 s).

    Migrates the bench enclave back and forth between the two machines,
    timing the enclave-specific work (library freeze + counter destruction
    + LA + ME<->ME remote attestation + transfer + destination restore).
    ``with_vm=True`` additionally times the VM live migration for the
    comparison the paper makes ("order of seconds").
    """
    world = build_bench_world(seed)
    app = world.miglib_app
    enclave = world.miglib_enclave
    counter_ids = [enclave.ecall("create_counter")[0] for _ in range(num_counters)]
    results: dict[str, list[float]] = {"enclave_migration": [], "vm_migration": []}

    machines = [world.machine_b, world.machine_a]
    for index in range(reps):
        target = machines[index % 2]
        duration, enclave = world.elapse(app.migrate, target, False)
        results["enclave_migration"].append(duration)
        if with_vm:
            # Time a pure VM migration of an equivalent (enclave-free) VM.
            spare = target.create_vm(f"spare-{index}", memory_bytes=1 << 32)
            other = world.machine_a if target is world.machine_b else world.machine_b
            duration, _ = world.elapse(world.dc.hypervisor.migrate_vm, spare, other)
            results["vm_migration"].append(duration)
            other.release_vm(spare)
    # keep the counters alive so ablations can reuse the world
    world.extra["counter_ids"] = counter_ids
    return results


# --------------------------------------------------------------------- fleet
@dataclass(frozen=True)
class FleetBenchConfig:
    """Every knob of :func:`run_fleet_bench`, as one serializable value.

    The config travels verbatim into the bench result (``result["config"]``)
    and the checked-in ``BENCH_fleet.json`` metadata, so a recorded run can
    be replayed exactly from its own report.

    ``orchestrated=True`` routes drain rounds through the fleet control
    plane (:class:`repro.fleet.service.FleetService` — plan, pre-flight,
    journaled waves) instead of hand-rolled ``migrate_group`` calls,
    benchmarking the control plane's overhead on the same workload.

    ``dispatch`` (orchestrated only) selects the control plane's group
    execution mode: ``"serial"`` sums the per-destination groups on the
    virtual clock, and ``"pipelined"`` replays them as overlapping
    discrete-event processes with no wave (or plan) barrier — groups admit
    the moment their machine claims are free (same bytes, contended
    virtual time) — the comparison behind the ``scale`` sweep.

    ``wave_caps`` (orchestrated only) tightens ``max_moves_per_machine``
    and ``tenant_wave_quota`` to that value so plans split into many small
    waves (the shape where cross-wave admission matters); default keeps the
    caps at ``n_enclaves`` (single-wave plans, byte-comparable with earlier
    records).

    ``multi_plan=True`` (orchestrated only) executes all ``reps`` rounds as
    ONE ``apply_many`` dispatch of plan factories instead of sequential
    ``apply`` calls: drain rounds become a maintenance window (each round's
    machine excluded from every round's destinations, so the drained hosts
    stay empty), evacuate rounds one tenant each.  Under pipelined dispatch
    the rounds' claim-disjoint groups overlap on one scheduler.

    ``tenant_pods`` (evacuate only) registers tenants in that many
    contiguous machine pods (tenant *p* owns ``n_machines/pods`` machines)
    instead of striping every tenant across all machines — pods make
    different tenants' source claims disjoint, which is what lets a
    multi-tenant ``apply_many`` actually overlap.
    """

    n_enclaves: int = 8
    n_machines: int = 4
    reps: int = 3
    seed: int = 0
    session_resumption: bool = False
    batch: bool = False
    plan: str = "ring"
    orchestrated: bool = False
    dispatch: str = "serial"
    wave_caps: int | None = None
    multi_plan: bool = False
    tenant_pods: int | None = None

    def __post_init__(self) -> None:
        if self.plan not in ("ring", "drain", "evacuate"):
            raise ValueError(f"unknown fleet plan: {self.plan!r}")
        if self.orchestrated and self.plan == "ring":
            raise ValueError("orchestrated fleet bench requires plan='drain' or 'evacuate'")
        if self.plan == "evacuate" and not self.orchestrated:
            raise ValueError("plan='evacuate' requires orchestrated=True")
        if self.dispatch not in ("serial", "pipelined"):
            raise ValueError(f"unknown dispatch mode: {self.dispatch!r}")
        if self.dispatch != "serial" and not self.orchestrated:
            raise ValueError(
                f"{self.dispatch} dispatch requires orchestrated=True"
            )
        if self.wave_caps is not None and not self.orchestrated:
            raise ValueError("wave_caps requires orchestrated=True")
        if self.multi_plan and not self.orchestrated:
            raise ValueError("multi_plan requires orchestrated=True")
        if (
            self.multi_plan
            and self.plan == "drain"
            and self.reps >= self.n_machines
        ):
            # The maintenance window excludes every round's drain target
            # from all destinations; reps >= n_machines would exclude every
            # machine and make every round's plan infeasible.
            raise ValueError(
                "multi_plan drain requires reps < n_machines (the "
                "maintenance window must leave at least one destination)"
            )
        if self.tenant_pods is not None:
            if self.plan != "evacuate":
                raise ValueError("tenant_pods requires plan='evacuate'")
            if self.n_machines % self.tenant_pods:
                raise ValueError(
                    "tenant_pods must divide n_machines evenly"
                )

    @classmethod
    def from_args(cls, args, **overrides) -> "FleetBenchConfig":
        """Build from an argparse namespace using the bench CLI's flag
        names (``--enclaves``, ``--machines``, ...), then apply sweep
        overrides."""
        base = dict(
            n_enclaves=args.enclaves,
            n_machines=args.machines,
            reps=args.reps,
            seed=args.seed,
        )
        base.update(overrides)
        return cls(**base)

    def as_dict(self) -> dict:
        return asdict(self)


def _require_completed(results) -> None:
    for result in results:
        if result.outcome.name != "COMPLETED":
            raise RuntimeError(f"fleet migration failed: {result.outcome}")


def run_fleet_bench(config: FleetBenchConfig) -> dict:
    """Fleet-scale migration throughput (wall clock AND virtual clock).

    Takes one :class:`FleetBenchConfig`; the knobs below are its fields.

    Builds an ``n_machines`` data center, deploys ``n_enclaves`` migratable
    apps round-robin across it, then migrates them for ``reps`` rounds
    (state-only, ``migrate_vm=False`` — the paper's enclave-specific
    overhead).  Unlike the figure benchmarks, which report only virtual time,
    this one also reports *wall-clock* migrations/sec: it is the gauge for
    simulator-throughput work, where the virtual-time distribution must stay
    fixed while the wall cost drops.

    ``plan`` picks the movement pattern per round:

    - ``"ring"``: every app moves to the next machine in the ring (the
      original schedule; with ``batch=True`` co-located apps form one wave).
    - ``"drain"``: round ``r`` evacuates machine ``r % n_machines`` onto its
      ring successor — the maintenance-drain shape where waves are largest.
    - ``"evacuate"`` (orchestrated only): round ``r`` relocates every app of
      tenant ``r`` — one member per machine, so the wave's moves have
      distinct sources *and* destinations.  This is the shape where
      pipelined dispatch pays off most: a drain is inherently bottlenecked
      on the drained machine's CPU (speedup caps near 2x), while an
      evacuation wave parallelizes across the whole fleet.

    ``batch=True`` replaces per-app ``migrate`` calls with one
    ``MigratableApp.migrate_group`` wave per (source, destination) pair; the
    wave's virtual cost is split evenly across its members so per-migration
    numbers stay comparable with the sequential path.

    ``session_resumption=True`` provisions the MEs with the attested-session
    cache (an explicit ablation; it shortens repeat ME<->ME handshakes on
    both clocks, so it is never folded into reproduced figures).

    ``orchestrated=True`` (drain only) hands each round to the fleet
    control plane: a :class:`~repro.fleet.service.FleetService` plans the
    drain, pre-flights it, and executes journaled waves through the same
    batched path — so the number reported *includes* planner + journal
    overhead, against the same enclave workload.
    """
    n_enclaves, n_machines = config.n_enclaves, config.n_machines
    reps, seed = config.reps, config.seed
    session_resumption, batch, plan = (
        config.session_resumption, config.batch, config.plan,
    )

    dc = DataCenter(name="fleet", seed=seed)
    machines = [dc.add_machine(f"fleet-{i}") for i in range(n_machines)]
    hosts = install_all_migration_enclaves(
        dc, session_resumption=session_resumption
    )
    signing_key = SigningKey.generate(dc.rng.child("fleet-dev"))
    apps = []
    for i in range(n_enclaves):
        app = MigratableApp.deploy(
            dc,
            machines[i % n_machines],
            MigratableBenchEnclave,
            signing_key,
            vm_name=f"fleet-vm-{i}",
            app_name=f"fleet-app-{i}",
        )
        app.start_new()
        apps.append(app)

    # Machine position per app, maintained across migrations so the loop never
    # pays an O(n) ``machines.index`` scan (apps deploy round-robin).
    positions = [i % n_machines for i in range(n_enclaves)]

    per_migration_virtual: list[float] = []
    utilization: dict | None = None
    virtual_start = dc.clock.now
    wall_start = time.perf_counter()
    if config.orchestrated:
        # Drain rounds through the control plane: plan + pre-flight +
        # journaled waves.  The wave's virtual cost (planner overhead
        # included) is split evenly across its moves, keeping per-migration
        # numbers comparable with the hand-rolled paths.
        from repro.fleet import FleetConstraints, FleetService

        caps = config.wave_caps or n_enclaves
        service = FleetService(
            dc=dc,
            hosts=hosts,
            constraints=FleetConstraints(
                machine_capacity=n_enclaves,
                max_moves_per_machine=caps,
                tenant_wave_quota=caps,
            ),
            session_resumption=session_resumption,
            dispatch=config.dispatch,
        )
        # For evacuation rounds, tenant i // n_machines puts one member of
        # each tenant on each machine (apps deploy round-robin), so an
        # evacuation wave has distinct sources and destinations — maximum
        # dispatch overlap.  ``tenant_pods`` confines each tenant to a
        # contiguous pod of machines instead, making different tenants'
        # source claims disjoint.  Drain rounds keep the default tenant so
        # the orchestrated numbers stay byte-comparable with earlier
        # records.
        if config.tenant_pods:
            pod_size = n_machines // config.tenant_pods
            n_tenants = config.tenant_pods
        else:
            pod_size = None
            n_tenants = (n_enclaves + n_machines - 1) // n_machines
        for i, app in enumerate(apps):
            if plan == "evacuate":
                if pod_size is not None:
                    tenant = f"tenant-{(i % n_machines) // pod_size}"
                else:
                    tenant = f"tenant-{i // n_machines}"
                service.register(app, tenant=tenant)
            else:
                service.register(app)

        def round_plan(round_index: int):
            if plan == "evacuate":
                return service.plan_evacuate(f"tenant-{round_index % n_tenants}")
            return service.plan_drain(f"fleet-{round_index % n_machines}")

        if config.multi_plan:
            # All rounds in one multi-plan dispatch.  Factories defer
            # planning until the earlier rounds have executed (round r+1's
            # placements depend on round r); drain rounds exclude the whole
            # maintenance window so the drained hosts stay empty and the
            # rounds' resource claims stay mostly disjoint.
            window = frozenset(
                f"fleet-{r % n_machines}" for r in range(reps)
            )

            def drain_factory(round_index: int):
                return lambda: service.plan_drain(
                    f"fleet-{round_index % n_machines}", exclude=window
                )

            if plan == "evacuate":
                factories = [
                    (lambda r=r: service.plan_evacuate(f"tenant-{r % n_tenants}"))
                    for r in range(reps)
                ]
            else:
                factories = [drain_factory(r) for r in range(reps)]
            before = dc.clock.now
            outcomes = service.apply_many(factories)
            results = [
                result
                for outcome in outcomes
                for wave in outcome.waves
                for result in wave.results.values()
            ]
            _require_completed(results)
            if results:
                share = (dc.clock.now - before) / len(results)
                per_migration_virtual.extend([share] * len(results))
        else:
            for round_index in range(reps):
                drain_plan = round_plan(round_index)
                if not drain_plan.moves:
                    continue
                before = dc.clock.now
                outcome = service.apply(drain_plan)
                _require_completed(
                    [
                        result
                        for wave in outcome.waves
                        for result in wave.results.values()
                    ]
                )
                share = (dc.clock.now - before) / len(drain_plan.moves)
                per_migration_virtual.extend([share] * len(drain_plan.moves))
        utilization = (
            service.last_schedule.utilization_report()["summary"]
            if service.last_schedule is not None
            else None
        )
    else:
        for round_index in range(reps):
            if plan == "ring":
                moves = [(idx, positions[idx]) for idx in range(n_enclaves)]
            else:  # drain: evacuate one machine per round
                src_pos = round_index % n_machines
                moves = [
                    (idx, src_pos)
                    for idx in range(n_enclaves)
                    if positions[idx] == src_pos
                ]
            if not batch:
                for idx, pos in moves:
                    target = machines[(pos + 1) % n_machines]
                    before = dc.clock.now
                    result = apps[idx].migrate(target, migrate_vm=False)
                    _require_completed([result])
                    per_migration_virtual.append(dc.clock.now - before)
                    positions[idx] = (pos + 1) % n_machines
            else:
                # One wave per (source, destination) pair; ring rounds produce
                # one wave per occupied machine, drain rounds a single big
                # wave.
                groups: dict[int, list[int]] = {}
                for idx, pos in moves:
                    groups.setdefault(pos, []).append(idx)
                for pos in sorted(groups):
                    members = groups[pos]
                    target = machines[(pos + 1) % n_machines]
                    wave = [apps[idx] for idx in members]
                    before = dc.clock.now
                    results = MigratableApp.migrate_group(
                        wave, target, migrate_vm=False
                    )
                    _require_completed(results)
                    share = (dc.clock.now - before) / len(wave)
                    per_migration_virtual.extend([share] * len(wave))
                    for idx in members:
                        positions[idx] = (pos + 1) % n_machines
    wall_seconds = time.perf_counter() - wall_start
    migrations = len(per_migration_virtual)
    return {
        "n_enclaves": n_enclaves,
        "n_machines": n_machines,
        "reps": reps,
        "seed": seed,
        "session_resumption": session_resumption,
        "batch": batch,
        "plan": plan,
        "config": config.as_dict(),
        "migrations": migrations,
        "wall_seconds": wall_seconds,
        "wall_migrations_per_sec": migrations / wall_seconds if wall_seconds else 0.0,
        "virtual_seconds_total": dc.clock.now - virtual_start,
        "virtual_seconds_mean": sum(per_migration_virtual) / migrations,
        "virtual_seconds_per_migration": per_migration_virtual,
        "utilization": utilization,
    }


# ---------------------------------------------------------------- ablations
def run_offset_ablation(
    counter_values: tuple[int, ...] = (1, 5, 10, 50, 100),
    reps: int = 20,
    seed: int = 0,
) -> dict[int, dict[str, list[float]]]:
    """Counter-offset design vs increment-to-value (Section VI-B).

    For each starting counter value, measures the destination-side cost of
    re-establishing the counter (a) with the paper's offset scheme (one
    create, constant time) and (b) by incrementing a fresh counter up to the
    value (linear in the value, and rate-limited on real hardware).
    """
    world = build_bench_world(seed)
    baseline = world.baseline_enclave
    results: dict[int, dict[str, list[float]]] = {}
    for value in counter_values:
        results[value] = {"offset": [], "increment_to_value": []}
        for _ in range(reps):
            # (a) offset scheme: one counter creation, offset set in memory.
            start = world.dc.clock.now
            uuid, _ = baseline.ecall("create_counter")
            results[value]["offset"].append(world.dc.clock.now - start)
            baseline.ecall("destroy_counter", uuid)
            # (b) increment-to-value: create plus `value` increments.
            start = world.dc.clock.now
            uuid, _ = baseline.ecall("create_counter")
            for _ in range(value):
                baseline.ecall("increment_counter", uuid)
            results[value]["increment_to_value"].append(world.dc.clock.now - start)
            baseline.ecall("destroy_counter", uuid)
    return results
