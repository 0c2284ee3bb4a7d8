"""The four workloads of the end-to-end benchmark.

Every world is built from the public API only (``DataCenter``,
``install_all_migration_enclaves``, ``MigratableApp``, ``SecureKvStore``,
``MigratableBenchEnclave``, ``FleetService``) and never through
``repro.bench.harness``, so a change under ``src/`` cannot alter what the
benchmark runs without showing up as a different number.

Each workload is a closed loop: one client in the benchmark process issues an
operation, waits for it, checks its outcome, and only then issues the next.
Every migratable enclave holds a monotonic counter, because persistent state
is what the paper migrates.

Two kinds of client call are timed, each on both clocks:

* a *migration* — one ``migrate`` call, or one ``FleetService`` dispatch
  (``apply``/``apply_many``) covering several members;
* an *application ECALL* — a call the tenant's own code makes into its
  enclave: the KV store's ``get``/``put``/``load_snapshot``, or the
  counter read and unseal that check an enclave after it moved.

Wall times are normalised to reference seconds by host-speed probes taken
around each stretch of timed work (see ``hostspeed``).  Wall rates are
measured per chunk of timed operations with the same mix of work (one op, or
one put/get block with its migration in ``kv_churn``), and the metric is the
median chunk.  Virtual metrics use only the samples of the first ``min_ops``
timed operations, which every run reaches, so for one seed they are
identical however fast the host is.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

from repro.apps.counter_app import MigratableBenchEnclave
from repro.apps.kvstore import SecureKvStore
from repro.cloud.datacenter import DataCenter
from repro.core.protocol import MigratableApp, install_all_migration_enclaves
from repro.core.result import MigrationOutcome
from repro.errors import InvalidStateError
from repro.fleet import FleetConstraints, FleetService
from repro.sgx.identity import SigningKey

import hostspeed

#: End-to-end metrics every workload reports: ``name -> unit``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_migrations_per_s": "1/s",
    "wall_ecalls_per_s": "1/s",
    "virtual_s_per_migration_p50": "s",
    "virtual_ecalls_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class CheckFailed(Exception):
    """A correctness check on a program output failed."""


@dataclass
class Sample:
    """One timed client call: wall, reference (``norm``, set once the
    stretch of work it belongs to is bracketed by probes) and virtual
    seconds, and how many migrations it covered."""

    op: int
    wall: float
    virtual: float
    count: int = 1
    norm: float = 0.0


@dataclass
class RunStats:
    """What one workload run observed, warm-up ops included; samples carry
    their op index so the metrics can select the timed ones."""

    migrations: list[Sample] = field(default_factory=list)
    ecalls: list[Sample] = field(default_factory=list)
    #: Every ``MigrationResult``, in order.
    results: list = field(default_factory=list)
    #: ``PlanResult`` objects of fleet dispatches.
    plans: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)


@dataclass
class PersistentState:
    """What one enclave must carry through every migration unchanged."""

    counter_id: int
    value: int
    plaintext: bytes
    aad: bytes
    blob: bytes


class Workload:
    """One world of one workload: ``setup`` builds it, ``op`` runs one
    client operation against it and checks the outcome."""

    name = ""
    #: Sizes per mode.  ``min_ops`` timed ops form the virtual-metric window.
    FULL: dict = {}
    SMOKE: dict = {}
    #: Worlds built when ``setup_s`` is measured (it is their median).
    setup_reps = 3
    #: Untimed ops run after set-up (first-use caches that users pay once).
    warmup_ops = 0
    #: Every charge advances the clock (no discrete-event replay), so the
    #: charged virtual total must equal the clock delta.
    serial_clock = True

    def __init__(self, seed: int, world_seed: int | str, size: dict, stats: RunStats):
        self.seed = seed
        self.world_seed = world_seed
        self.size = size
        self.stats = stats
        self.inputs = random.Random(f"{self.name}/{seed}")
        self.dc: DataCenter | None = None

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def op(self, index: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def probe_before(self, index: int) -> bool:
        """Whether a host-speed probe ends one stretch of timed work and
        starts the next before op ``index``."""
        return True

    # --------------------------------------------------------------- world
    def build_world(self, n_machines: int, *, session_resumption: bool = False):
        self.dc = DataCenter(name=f"e2e-{self.name}", seed=self.world_seed)
        machines = [self.dc.add_machine(f"m{i:02d}") for i in range(n_machines)]
        hosts = install_all_migration_enclaves(
            self.dc, session_resumption=session_resumption
        )
        return machines, hosts, SigningKey.generate(self.dc.rng.child("e2e-developer"))

    def provision(self, app: MigratableApp, blob_bytes: int, increments: int) -> PersistentState:
        """Give a bench enclave a counter and a migratable-sealed blob."""
        counter_id, value = app.ecall("create_counter")
        for _ in range(increments):
            value = app.ecall("increment_counter", counter_id)
        plaintext = self.inputs.randbytes(blob_bytes)
        aad = f"{app.app_name}/{self.seed}".encode()
        return PersistentState(
            counter_id, value, plaintext, aad, app.ecall("seal", plaintext, aad)
        )

    def wrong(self, index: int, problem: str) -> CheckFailed:
        """A call gave a wrong outcome: count it failed and name it."""
        self.stats.failed += 1
        return CheckFailed(f"{self.name}: op {index}: {problem}")

    # -------------------------------------------------------------- timing
    def _timed(self, call, *args, **kwargs):
        clock = self.dc.clock
        virtual_start = clock.now
        wall_start = time.perf_counter()
        result = call(*args, **kwargs)
        wall = time.perf_counter() - wall_start
        return result, wall, clock.now - virtual_start

    def ecall(self, index: int, app: MigratableApp, name: str, *args):
        """One timed application ECALL."""
        self.stats.attempted += 1
        try:
            result, wall, virtual = self._timed(app.ecall, name, *args)
        except Exception:
            self.stats.failed += 1
            raise
        self.stats.ecalls.append(Sample(index, wall, virtual))
        return result

    def expect_rejected(self, index: int, app: MigratableApp, name: str, *args) -> None:
        """One timed ECALL that must refuse its (stale) input."""
        self.stats.attempted += 1
        wall_start, virtual_start = time.perf_counter(), self.dc.clock.now
        try:
            app.ecall(name, *args)
        except InvalidStateError:
            self.stats.ecalls.append(
                Sample(
                    index,
                    time.perf_counter() - wall_start,
                    self.dc.clock.now - virtual_start,
                )
            )
            return
        raise self.wrong(index, f"{name} accepted a stale snapshot")

    def migrate(self, index: int, app: MigratableApp, destination) -> None:
        """One timed sequential migration that must complete."""
        self.stats.attempted += 1
        try:
            result, wall, virtual = self._timed(app.migrate, destination, migrate_vm=False)
        except Exception:
            self.stats.failed += 1
            raise
        self.stats.results.append(result)
        if result.outcome is not MigrationOutcome.COMPLETED:
            raise self.wrong(index, f"migration ended {result.outcome.name}")
        self.stats.migrations.append(Sample(index, wall, virtual))

    def check_state(self, index: int, app: MigratableApp, state: PersistentState) -> None:
        """The counter kept its value (R3) and the blob still unseals."""
        value = self.ecall(index, app, "read_counter", state.counter_id)
        if value != state.value:
            raise self.wrong(
                index, f"{app.app_name} counter reads {value} after migration, "
                f"was {state.value} (R3)"
            )
        if self.ecall(index, app, "unseal", state.blob) != (state.plaintext, state.aad):
            raise self.wrong(index, f"{app.app_name} sealed blob did not survive")


class PaperMigrate(Workload):
    """Section VII-B: one enclave with a counter and a 4 KiB migratable-sealed
    blob, migrated back and forth between two machines, each time with full
    remote attestation."""

    name = "paper_migrate"
    FULL = {"min_ops": 40, "blob_bytes": 4096}
    SMOKE = {"min_ops": 5, "blob_bytes": 256}
    setup_reps = 15

    def setup(self) -> None:
        self.machines, _, key = self.build_world(2)
        self.app = MigratableApp.deploy(
            self.dc, self.machines[0], MigratableBenchEnclave, key,
            vm_name="paper-vm", app_name="paper-app",
        )
        self.app.start_new()
        self.state = self.provision(
            self.app, self.size["blob_bytes"], self.inputs.randint(1, 4)
        )

    def op(self, index: int) -> None:
        self.migrate(index, self.app, self.machines[(index + 1) % 2])
        self.check_state(index, self.app, self.state)


class KvChurn(Workload):
    """A sealed KV store under a 25 % put / 75 % get mix; every
    ``migrate_every``-th op migrates it instead, reloads the latest snapshot
    and checks that the one before it is rejected as stale."""

    name = "kv_churn"
    FULL = {"min_ops": 600, "keys": 64, "value_bytes": 1024, "migrate_every": 100, "puts": 25}
    SMOKE = {"min_ops": 60, "keys": 8, "value_bytes": 256, "migrate_every": 20, "puts": 5}
    setup_reps = 5

    def probe_before(self, index: int) -> bool:
        # ECALLs take a few ms, as long as a probe: bracket each block of
        # them as a whole, and each migration on its own.
        return index % self.size["migrate_every"] in (0, self.size["migrate_every"] - 1)

    def setup(self) -> None:
        self.machines, _, key = self.build_world(2)
        self.app = MigratableApp.deploy(
            self.dc, self.machines[0], SecureKvStore, key,
            vm_name="kv-vm", app_name="kv-app",
        )
        self.app.start_new()
        self.app.ecall("kv_init")
        self.keys = [f"key-{i:03d}" for i in range(self.size["keys"])]
        self.model: dict[str, bytes] = {}
        self.snapshots: list[bytes] = []
        for key_name in self.keys:
            self._keep(self.app.ecall("put", key_name, self._new_value(key_name)))
        self.schedule: list[str] = []

    def _new_value(self, key_name: str) -> bytes:
        value = self.inputs.randbytes(self.size["value_bytes"])
        self.model[key_name] = value
        return value

    def _keep(self, snapshot: bytes) -> None:
        # Only the latest snapshot and its (stale) predecessor are needed.
        self.snapshots = [*self.snapshots[-1:], snapshot]

    def _next_kind(self) -> str:
        """Exactly ``puts`` puts per block of ECALL ops, in seeded order, so
        the seed moves the virtual cost of a run only through noise."""
        if not self.schedule:
            block = self.size["migrate_every"] - 1
            self.schedule = ["put"] * self.size["puts"] + ["get"] * (block - self.size["puts"])
            self.inputs.shuffle(self.schedule)
        return self.schedule.pop()

    def op(self, index: int) -> None:
        every = self.size["migrate_every"]
        if index % every == every - 1:
            self.migrate(index, self.app, self.machines[(index // every + 1) % 2])
            stale, latest = self.snapshots
            self.expect_rejected(index, self.app, "load_snapshot", stale)
            self.ecall(index, self.app, "load_snapshot", latest)
            return
        key_name = self.inputs.choice(self.keys)
        if self._next_kind() == "put":
            value = self._new_value(key_name)
            self._keep(self.ecall(index, self.app, "put", key_name, value))
        elif self.ecall(index, self.app, "get", key_name) != self.model[key_name]:
            raise self.wrong(index, f"get({key_name}) returned a wrong value")


class _FleetWorkload(Workload):
    """``machines`` × ``enclaves`` bench enclaves under a ``FleetService``,
    each with a counter and a sealed blob; tenant ``t`` holds one enclave
    per machine.  Each op is one dispatch, checked member by member."""

    dispatch_mode = "serial"
    session_resumption = False

    def setup(self) -> None:
        n_machines, n_enclaves = self.size["machines"], self.size["enclaves"]
        machines, hosts, key = self.build_world(
            n_machines, session_resumption=self.session_resumption
        )
        caps = self.size["caps"] or n_enclaves
        self.service = FleetService(
            dc=self.dc,
            hosts=hosts,
            constraints=FleetConstraints(
                machine_capacity=n_enclaves,
                max_moves_per_machine=caps,
                tenant_wave_quota=caps,
            ),
            session_resumption=self.session_resumption,
            dispatch=self.dispatch_mode,
        )
        self.states: dict[str, PersistentState] = {}
        for i in range(n_enclaves):
            app = MigratableApp.deploy(
                self.dc, machines[i % n_machines], MigratableBenchEnclave, key,
                vm_name=f"vm-{i:04d}", app_name=f"app-{i:04d}",
            )
            app.start_new()
            self.states[app.app_name] = self.provision(app, self.size["blob_bytes"], 0)
            self.service.register(app, tenant=f"tenant-{i // n_machines}")

    def dispatch(self, index: int, call, *args) -> None:
        """One timed fleet dispatch.  Every planned member must end
        ``COMPLETED`` on its planned destination with its state intact."""
        try:
            outcome, wall, virtual = self._timed(call, *args)
        except Exception:
            self.stats.attempted += 1
            self.stats.failed += 1
            raise
        plans = outcome if isinstance(outcome, list) else [outcome]
        self.stats.plans.extend(plans)
        moves = [(wave, move) for plan in plans for wave in plan.waves for move in wave.moves]
        if not moves:
            self.stats.attempted += 1
            raise self.wrong(index, "the plan moved nothing")
        for wave, move in moves:
            self.stats.attempted += 1
            result = wave.results.get(move.app_name)
            self.stats.results.append(result)
            if result is None or result.outcome is not MigrationOutcome.COMPLETED:
                raise self.wrong(
                    index, f"{move.app_name} ended "
                    f"{'without a result' if result is None else result.outcome.name}"
                )
            placed = self.service.members[move.app_name].machine
            if placed != move.destination:
                raise self.wrong(
                    index, f"{move.app_name} is on {placed}, the plan said {move.destination}"
                )
        self.stats.migrations.append(Sample(index, wall, virtual, len(moves)))
        for _, move in moves:
            app = self.service.members[move.app_name].app
            self.check_state(index, app, self.states[move.app_name])


class WindowDrain(_FleetWorkload):
    """Maintenance-window drains: each op drains one window of ``window``
    machines with one pipelined ``apply_many`` of
    ``plan_drain(..., exclude=window)`` factories.  Two windows take turns,
    so each drain's members land on the hosts the previous drain emptied.
    The first untimed warm-up drain spreads the first window over the
    fleet; from the second on, every op moves the same members the same
    way."""

    name = "window_drain"
    FULL = {"min_ops": 4, "machines": 64, "enclaves": 64, "window": 4, "caps": None,
            "blob_bytes": 1024}
    SMOKE = {"min_ops": 1, "machines": 8, "enclaves": 16, "window": 2, "caps": None,
             "blob_bytes": 128}
    warmup_ops = 2
    dispatch_mode = "pipelined"
    serial_clock = False

    def setup(self) -> None:
        super().setup()
        width = self.size["window"]
        names = self.service.machine_names()
        self.windows = [names[:width], names[width : 2 * width]]

    def op(self, index: int) -> None:
        window = self.windows[index % len(self.windows)]
        excluded = frozenset(window)
        factories = [
            (lambda machine=machine: self.service.plan_drain(machine, exclude=excluded))
            for machine in window
        ]
        self.dispatch(index, self.service.apply_many, factories)
        placements = self.service.placements()
        for machine in window:
            if placements[machine]:
                raise self.wrong(
                    index, f"drained {machine} still hosts {len(placements[machine])} members"
                )


class EvacuateResumed(_FleetWorkload):
    """Tenant evacuations under serial dispatch with wave caps of 4 and the
    ME session cache on: each op evacuates the next tenant (one member per
    machine).  The untimed warm-up evacuates every tenant once, which opens
    every ME<->ME session the timed ops reuse: the first visit of a tenant
    sends a quarter more messages than every later one, so timing it would
    make the rate depend on how many ops a run reaches."""

    name = "evacuate_resumed"
    FULL = {"min_ops": 4, "machines": 16, "enclaves": 64, "caps": 4, "blob_bytes": 1024}
    SMOKE = {"min_ops": 2, "machines": 8, "enclaves": 16, "caps": 2, "blob_bytes": 128}
    session_resumption = True

    def setup(self) -> None:
        super().setup()
        self.tenants = sorted({member.tenant for member in self.service.members.values()})
        self.warmup_ops = len(self.tenants)

    def op(self, index: int) -> None:
        tenant = self.tenants[index % len(self.tenants)]
        self.dispatch(index, lambda: self.service.apply(self.service.plan_evacuate(tenant)))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PaperMigrate, KvChurn, WindowDrain, EvacuateResumed)
}


# ---------------------------------------------------------------- run loop
def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _rate(samples: list[Sample], clock: str) -> float:
    spent = sum(getattr(sample, clock) for sample in samples)
    return sum(sample.count for sample in samples) / spent if spent > 0 else 0.0


def _chunk_rates(
    samples: list[Sample], chunk_ops: int, first: int, done: int, clock: str
) -> list[float]:
    """Rate of each chunk of ``chunk_ops`` timed ops on ``clock`` (a
    ``Sample`` field); a trailing partial chunk (a different mix of work)
    is left out unless it is all there is."""
    chunks: defaultdict[int, list[Sample]] = defaultdict(list)
    for sample in samples:
        chunks[(sample.op - first) // chunk_ops].append(sample)
    if done % chunk_ops and len(chunks) > 1:
        chunks.pop(done // chunk_ops, None)
    return [_rate(chunk, clock) for chunk in chunks.values()]


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _p90(values: list[float]) -> float | None:
    """The 90th percentile, only where at least ten samples lie beyond it."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 100 else None


class _Probes:
    """Host-speed probes between stretches of timed work."""

    def __init__(self, stats: RunStats) -> None:
        self.stats = stats
        #: Wall seconds the probes took, to leave out of the timed phase.
        self.spent = 0.0
        self.durations: list[float] = []
        self._marks = (len(stats.migrations), len(stats.ecalls))
        self._last = self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        duration = hostspeed.probe()
        self.spent += time.perf_counter() - start
        self.durations.append(duration)
        return duration

    def close(self) -> None:
        """End the current stretch: probe, and give every sample taken
        since the previous probe its wall time in reference seconds."""
        now = self._probe()
        factor = hostspeed.scale(self._last, now)
        migrations, ecalls = self._marks
        for sample in self.stats.migrations[migrations:] + self.stats.ecalls[ecalls:]:
            sample.norm = sample.wall * factor
        self._marks = (len(self.stats.migrations), len(self.stats.ecalls))
        self._last = now


def _build(cls: type[Workload], seed: int, world_seed, size: dict, stats: RunStats,
           setups: list[tuple[float, float]]) -> Workload:
    """Set up one world between two probes; append its set-up time as
    ``(wall, reference)`` seconds to ``setups``."""
    workload = cls(seed, world_seed, size, stats)
    before = hostspeed.probe()
    start = time.perf_counter()
    workload.setup()
    wall = time.perf_counter() - start
    setups.append((wall, wall * hostspeed.scale(before, hostspeed.probe())))
    return workload


def run(
    name: str,
    seed: int,
    *,
    seconds: float,
    smoke: bool,
    measure_setup: bool,
    ops: int | None = None,
    tracer=None,
) -> dict:
    """Set up the world, then run the warm-up and the timed phase on it.
    The timed phase runs until ``seconds`` have passed and ``min_ops`` ops
    are done (just ``min_ops`` in smoke mode), or exactly ``ops`` ops when
    given.

    With ``measure_setup``, ``setup_reps`` worlds are built.  Worlds before
    the last are built from derived seeds and dropped, so their keys never
    warm a cache that the measured world would then hit.
    """
    cls = WORKLOADS[name]
    size = cls.SMOKE if smoke else cls.FULL
    stats = RunStats()
    setups: list[tuple[float, float]] = []
    for rep in range(cls.setup_reps - 1 if measure_setup else 0):
        _build(cls, seed, f"{seed}/setup-{rep}", size, stats, setups)
        gc.collect()
    workload = _build(cls, seed, seed, size, stats, setups)

    def attempt(index: int) -> bool:
        try:
            workload.op(index)
        except CheckFailed as exc:
            stats.violations.append(str(exc))
        except Exception:
            stats.violations.append(f"{name}: op {index} raised:\n{traceback.format_exc()}")
        return not stats.violations

    dc = workload.dc
    first = workload.warmup_ops
    ok = all(attempt(index) for index in range(first))
    results_mark, plans_mark = len(stats.results), len(stats.plans)
    virtual_start = dc.clock.now
    if tracer is not None:
        tracer.start(name, dc)
    wall_start = time.perf_counter()
    probes = _Probes(stats)
    done = 0
    peak_rss_kib = None
    while ok:
        if ops is not None:
            if done >= ops:
                break
        elif done >= size["min_ops"] and (smoke or time.perf_counter() - wall_start >= seconds):
            break
        index = first + done
        if done and workload.probe_before(index):
            probes.close()
        if tracer is not None:
            tracer.begin_op(index)
        ok = attempt(index)
        if tracer is not None:
            tracer.end_op()
        done += 1
        if done == size["min_ops"]:
            # Memory grows with every op (CostMeter keeps each charge), so
            # the peak is read where every run is, not where a fast host got.
            peak_rss_kib = _peak_rss_kib()
    probes.close()
    timed_wall = time.perf_counter() - wall_start - probes.spent
    if tracer is not None:
        tracer.stop()

    timed = [s for s in stats.migrations if s.op >= first]
    timed_ecalls = [s for s in stats.ecalls if s.op >= first]
    window_end = first + size["min_ops"]
    window = [s for s in timed if s.op < window_end]
    window_ecalls = [s for s in timed_ecalls if s.op < window_end]
    chunk_ops = size.get("migrate_every", 1)

    def chunk_rates(samples: list[Sample], clock: str) -> list[float]:
        return _chunk_rates(samples, chunk_ops, first, done, clock)

    migration_rates = chunk_rates(timed, "norm")
    metrics = {
        "setup_s": _median([reference for _, reference in setups]),
        "wall_migrations_per_s": _median(migration_rates),
        "wall_ecalls_per_s": _median(chunk_rates(timed_ecalls, "norm")),
        "virtual_s_per_migration_p50": _median([s.virtual / s.count for s in window]),
        "virtual_ecalls_per_s": _rate(window_ecalls, "virtual"),
        "peak_rss_mb": (peak_rss_kib or _peak_rss_kib()) / 1024,
    }
    if ok and not all(metrics.values()):
        zero = sorted(metric for metric, value in metrics.items() if not value)
        stats.violations.append(f"{name}: metrics read zero: {', '.join(zero)}")
    per_layer = None
    if tracer is not None:
        per_layer = tracer.metrics(
            timed_wall=timed_wall,
            results=stats.results[results_mark:],
            plans=stats.plans[plans_mark:],
            migrations=sum(s.count for s in timed),
        )
        stats.violations.extend(
            f"{name}: {problem}"
            for problem in tracer.reconcile(per_layer, serial_clock=cls.serial_clock)
        )
    migration_walls = [s.wall / s.count for s in timed]
    p90_wall = _p90(migration_walls)
    p90_virtual = _p90([s.virtual / s.count for s in timed])
    return {
        "workload": name,
        "seed": seed,
        "ops": done,
        "metrics": metrics,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "violations": stats.violations,
        "samples": {
            "setup_reps": len(setups),
            "warmup_ops": first,
            "timed_ops": done,
            "migrations": sum(s.count for s in timed),
            "migration_calls": len(timed),
            "ecalls": len(timed_ecalls),
            "chunks": len(migration_rates),
            "probes": len(probes.durations),
            "virtual_window_ops": size["min_ops"],
        },
        # Unnormalised wall figures, for reference only.
        "raw": {
            "setup_s_each": [wall for wall, _ in setups],
            "probe_ms_median": 1000 * _median(probes.durations),
            "probe_reference_ms": 1000 * hostspeed.REFERENCE_S,
            "wall_migrations_per_s": _median(chunk_rates(timed, "wall")),
            "wall_ecalls_per_s": _median(chunk_rates(timed_ecalls, "wall")),
            "wall_ms_per_migration_p50": 1000 * _median(migration_walls),
            "wall_ms_per_migration_p90": None if p90_wall is None else 1000 * p90_wall,
        },
        "virtual_s_per_migration_p90": p90_virtual,
        "timed_wall_s": timed_wall,
        "timed_reference_s": timed_wall * hostspeed.REFERENCE_S / _median(probes.durations),
        # End state of the timed phase: a traced run of the same ops must
        # reproduce it bit for bit.
        "fingerprint": {
            "virtual_elapsed_s": dc.clock.now - virtual_start,
            "bytes_sent": dc.network.bytes_sent,
            "messages_sent": dc.network.messages_sent,
            "virtual_s_per_migration_p50": metrics["virtual_s_per_migration_p50"],
            "virtual_ecalls_per_s": metrics["virtual_ecalls_per_s"],
        },
        "per_layer": per_layer,
    }
