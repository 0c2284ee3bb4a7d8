"""Per-layer attribution, measured from outside the program.

A traced run calls :meth:`Tracer.install` before it builds any world.  That
wraps the public entry points of each layer: class methods are replaced on
their class, module functions are rebound in every ``repro`` module that
holds them.  Nothing under ``src/`` changes, and the wrappers are inert
outside the timed phase.

Each wrapper pushes a frame on one span stack.  A layer's *self time* is the
wall time of its spans minus the time covered by child spans.  It is
reported as a share of the timed wall (``<layer>.wall_pct``), so the shares
and ``untraced.wall_pct`` (the timed wall that no span covers) add up to
100 %.  Leaf crypto primitives are aggregated (count and self
time) and never emitted as spans; nested calls into the same primitive
(``powmod`` -> ``FixedBaseTable.pow``) count once.  Spans at ``ecall``,
``Network.send``, ``MigratableApp._execute`` (the one funnel every
migration request passes), ``FleetService.apply``/``apply_many`` and
``Scheduler.run`` are also written as Chrome trace events.

Virtual time per layer comes from wrapping ``CostMeter.charge`` and
``charge_exact`` and mapping each charge label to a layer; a label with no
layer fails the run.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

from repro import wire
from repro.attestation.local import LocalAttestationInitiator, LocalAttestationResponder
from repro.attestation.remote import RemoteAttestationInitiator, RemoteAttestationResponder
from repro.cloud.machine import PhysicalMachine
from repro.cloud.network import Network
from repro.cloud.storage import UntrustedStorage
from repro.core.protocol import MigratableApp
from repro.core.result import MigrationOutcome
from repro.crypto import aes, cmac, gcm, modexp
from repro.fleet import planner, preflight
from repro.fleet.journal import FleetPlanIndex, FleetPlanJournal
from repro.fleet.service import FleetService
from repro.sgx.enclave import Enclave
from repro.sim.costs import CostMeter
from repro.sim.scheduler import Scheduler

#: Charge label -> layer; labels not listed fall back to ``_PREFIXES``.
_LABEL_LAYERS = {
    "ecall": "sgx",
    "ocall": "sgx",
    "egetkey": "sgx",
    "ereport": "sgx",
    "aes_gcm": "sgx",
    "quote_generation": "attestation",
    "ias_round_trip": "attestation",
    "kdc_round_trip": "attestation",
    "msk_seal": "core.miglib",
    "msk_unseal": "core.miglib",
    "retry_backoff": "core.miglib",
    "pse_proxy_hop": "cloud.network",
    "fault_delay": "faults",
}
_PREFIXES = (
    ("dh_", "attestation"),
    ("pse_", "sgx.pse"),
    ("lib_", "core.miglib"),
    ("net_", "cloud.network"),
)
VIRTUAL_LAYERS = ("attestation", "sgx", "sgx.pse", "core.miglib", "cloud.network", "faults")

#: Per-layer metrics of a traced run: ``name -> unit``.
PER_LAYER_UNITS = {
    "crypto.modexp.calls": "count",
    "crypto.modexp.wall_pct": "%",
    "crypto.modexp.tables_built": "count",
    "crypto.aes_block.calls": "count",
    "crypto.aes_block.wall_pct": "%",
    "crypto.aes_bulk.blocks": "count",
    "crypto.aes_bulk.wall_pct": "%",
    "crypto.gcm.calls": "count",
    "crypto.gcm.bytes": "B",
    "crypto.gcm.wall_pct": "%",
    "crypto.cmac.calls": "count",
    "crypto.cmac.wall_pct": "%",
    "crypto.aes_key_cache.hit_ratio": "ratio",
    "crypto.aes_key_cache.lookups": "count",
    "crypto.ghash_table_cache.hit_ratio": "ratio",
    "crypto.ghash_table_cache.lookups": "count",
    "crypto.modexp_pk_cache.hit_ratio": "ratio",
    "crypto.modexp_pk_cache.lookups": "count",
    "attestation.ra.handshakes": "count",
    "attestation.la.handshakes": "count",
    "attestation.wall_pct": "%",
    "attestation.virtual_s": "s",
    "attestation.quotes_per_migration": "ratio",
    "sgx.ecall.calls": "count",
    "sgx.ecall.wall_pct": "%",
    "sgx.launch.calls": "count",
    "sgx.launch.wall_pct": "%",
    "sgx.virtual_s": "s",
    "sgx.pse.ops": "count",
    "sgx.pse.virtual_s": "s",
    "core.migrate.wall_pct": "%",
    "core.retries": "count",
    "core.completed_ratio": "ratio",
    "core.miglib.virtual_s": "s",
    "cloud.network.messages": "count",
    "cloud.network.bytes": "B",
    "cloud.network.wall_pct": "%",
    "cloud.network.virtual_s": "s",
    "cloud.storage.writes": "count",
    "cloud.storage.syncs": "count",
    "cloud.storage.bytes": "B",
    "cloud.storage.wall_pct": "%",
    "fleet.service.wall_pct": "%",
    "fleet.planner.calls": "count",
    "fleet.planner.wall_pct": "%",
    "fleet.preflight.wall_pct": "%",
    "fleet.journal.writes": "count",
    "fleet.journal.wall_pct": "%",
    "fleet.waves": "count",
    "fleet.groups": "count",
    "sim.scheduler.wall_pct": "%",
    "sim.scheduler.mean_cpu_busy_fraction": "ratio",
    "sim.scheduler.max_cpu_queue_depth": "count",
    "sim.scheduler.mean_link_busy_fraction": "ratio",
    "sim.scheduler.max_link_concurrency": "count",
    "sim.charges": "count",
    "sim.virtual_charged_s": "s",
    "wire.calls": "count",
    "wire.wall_pct": "%",
    "untraced.wall_pct": "%",
    "trace_overhead_pct": "%",
}

_CACHES = {
    "crypto.aes_key_cache": aes.key_schedule_cache_stats,
    "crypto.ghash_table_cache": gcm.ghash_table_cache_stats,
    "crypto.modexp_pk_cache": modexp.public_key_cache_stats,
}


class TraceSetupError(RuntimeError):
    """An entry point the tracer wraps is gone: the layer map is stale."""


def layer_of(label: str) -> str | None:
    if label in _LABEL_LAYERS:
        return _LABEL_LAYERS[label]
    for prefix, layer in _PREFIXES:
        if label.startswith(prefix):
            return layer
    return None


def _arg_size(position: int):
    return lambda args: len(args[position])


def _one(args) -> int:
    return 1


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class Tracer:
    """Span stack, per-bucket self time, per-layer virtual time."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # frames: [bucket, seconds covered by children]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.virtual: defaultdict = defaultdict(float)
        self.label_counts: Counter = Counter()
        self.charged = 0.0
        self.unknown_labels: set[str] = set()
        self.events: list[dict] = []
        self.workload = ""
        self.op = -1
        self._op_start = 0.0
        self._origin = 0.0

    # ---------------------------------------------------------- wrapping
    def _wrap(self, fn, bucket: str, *, span=None, merge=False, count=()):
        """``span(args)`` names the Chrome event (``None``: aggregate only);
        ``merge`` folds a call made directly inside the same bucket into its
        caller; each ``(key, size)`` in ``count`` adds ``size(args)`` to
        ``counts[key]`` per call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            if merge and stack and stack[-1][0] == bucket:
                return fn(*args, **kwargs)
            for key, size in count:
                tracer.counts[key] += size(args)
            frame = [bucket, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                tracer.calls[bucket] += 1
                tracer.self_s[bucket] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if span is not None:
                    tracer._event(span(args), bucket, start, elapsed)

        return traced

    def _charging(self, fn):
        tracer = self

        @functools.wraps(fn)
        def charge(meter, label, *args, **kwargs):
            charged = fn(meter, label, *args, **kwargs)
            if tracer.active:
                tracer._charge(label, charged)
            return charged

        return charge

    @staticmethod
    def _patch_method(owner: type, name: str, make) -> None:
        raw = owner.__dict__.get(name)
        if raw is None:
            raise TraceSetupError(f"{owner.__qualname__}.{name} no longer exists")
        if isinstance(raw, classmethod):
            setattr(owner, name, classmethod(make(raw.__func__)))
        else:
            setattr(owner, name, make(raw))

    @staticmethod
    def _patch_function(module, name: str, make) -> None:
        original = getattr(module, name, None)
        if original is None:
            raise TraceSetupError(f"{module.__name__}.{name} no longer exists")
        replacement = make(original)
        for module_name, loaded in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attribute, replacement)

    def install(self) -> None:
        """Wrap every layer entry point (once per process)."""
        def method(owner, name, bucket, **options):
            self._patch_method(owner, name, lambda fn: self._wrap(fn, bucket, **options))

        def function(module, name, bucket, **options):
            self._patch_function(module, name, lambda fn: self._wrap(fn, bucket, **options))

        # crypto: leaf primitives, aggregated only
        method(modexp.FixedBaseTable, "pow", "crypto.modexp", merge=True)
        function(modexp, "powmod", "crypto.modexp", merge=True)
        function(modexp, "mul2_powmod", "crypto.modexp", merge=True)
        method(aes.AES, "encrypt_block", "crypto.aes_block")
        method(aes.AES, "decrypt_block", "crypto.aes_block")
        method(aes.AES, "encrypt_blocks", "crypto.aes_bulk",
               count=[("crypto.aes_bulk.blocks", _arg_size(1))])
        method(gcm.AesGcm, "encrypt", "crypto.gcm", count=[("crypto.gcm.bytes", _arg_size(2))])
        method(gcm.AesGcm, "decrypt", "crypto.gcm", count=[("crypto.gcm.bytes", _arg_size(2))])
        method(cmac.AesCmac, "mac", "crypto.cmac", merge=True)
        function(cmac, "aes_cmac", "crypto.cmac", merge=True)
        # attestation
        for owner, names in (
            (RemoteAttestationInitiator, ("msg1",)),
            (RemoteAttestationResponder, ("msg2",)),
            (LocalAttestationInitiator, ("msg1",)),
            (LocalAttestationResponder, ("msg0", "msg2")),
        ):
            for name in names:
                method(owner, name, "attestation")
        method(RemoteAttestationInitiator, "finish", "attestation",
               count=[("attestation.ra.handshakes", _one)])
        method(LocalAttestationInitiator, "finish", "attestation",
               count=[("attestation.la.handshakes", _one)])
        # sgx
        method(Enclave, "ecall", "sgx.ecall", span=lambda args: f"ecall {args[1]}")
        method(PhysicalMachine, "load_enclave", "sgx.launch")
        # core
        method(MigratableApp, "_execute", "core.migrate",
               span=lambda args: f"migrate {args[1].kind.name.lower()}")
        # cloud
        method(Network, "send", "cloud.network", span=lambda args: f"send {args[2]}")
        method(UntrustedStorage, "write", "cloud.storage",
               count=[("cloud.storage.writes", _one), ("cloud.storage.bytes", _arg_size(2))])
        method(UntrustedStorage, "sync", "cloud.storage", count=[("cloud.storage.syncs", _one)])
        # fleet
        method(FleetService, "apply", "fleet.service", span=lambda args: "FleetService.apply")
        method(FleetService, "apply_many", "fleet.service",
               span=lambda args: "FleetService.apply_many")
        for name in ("plan_drain", "plan_evacuate", "plan_rebalance", "build_conflict_graph"):
            function(planner, name, "fleet.planner", merge=True)
        function(preflight, "run_preflight", "fleet.preflight")
        method(FleetPlanJournal, "write", "fleet.journal", merge=True)
        method(FleetPlanIndex, "write", "fleet.journal", merge=True)
        # sim
        method(Scheduler, "run", "sim.scheduler", span=lambda args: "Scheduler.run")
        self._patch_method(CostMeter, "charge", self._charging)
        self._patch_method(CostMeter, "charge_exact", self._charging)
        # wire
        function(wire, "encode", "wire", merge=True)
        function(wire, "decode", "wire", merge=True)

    # ------------------------------------------------------------ records
    def _event(self, name: str, category: str, start: float, elapsed: float) -> None:
        self.events.append(
            {
                "name": name,
                "cat": category,
                "ph": "X",
                "ts": (start - self._origin) * 1e6,
                "dur": elapsed * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"workload": self.workload, "op": self.op},
            }
        )

    def _charge(self, label: str, charged: float) -> None:
        layer = layer_of(label)
        if layer is None:
            self.unknown_labels.add(label)
            layer = "unmapped"
        self.virtual[layer] += charged
        self.label_counts[label] += 1
        self.charged += charged

    # -------------------------------------------------------------- phase
    def start(self, workload: str, dc) -> None:
        self.workload = workload
        self._dc = dc
        self._net_start = (dc.network.messages_sent, dc.network.bytes_sent)
        self._virtual_start = dc.clock.now
        self._caches_start = {name: stats() for name, stats in _CACHES.items()}
        self._origin = time.perf_counter()
        self.active = True

    def begin_op(self, index: int) -> None:
        self.op = index
        self._op_start = time.perf_counter()

    def end_op(self) -> None:
        self._event("op", "op", self._op_start, time.perf_counter() - self._op_start)

    def stop(self) -> None:
        self.active = False
        dc = self._dc
        self.clock_delta = dc.clock.now - self._virtual_start
        self.network = (
            dc.network.messages_sent - self._net_start[0],
            dc.network.bytes_sent - self._net_start[1],
        )
        self.caches = {}
        for name, stats in _CACHES.items():
            now, before = stats(), self._caches_start[name]
            self.caches[name] = (now["hits"] - before["hits"], now["misses"] - before["misses"])

    # ------------------------------------------------------------ results
    def metrics(self, *, timed_wall: float, results: list, plans: list, migrations: int) -> dict:
        """Every per-layer metric except ``trace_overhead_pct`` (which needs
        the untraced run), as ``name -> value``."""
        # Self time as a share of the timed phase: it does not grow with
        # the number of ops a run reached, and a layer that does no work on
        # a workload reads 0 % rather than a time.
        wall = defaultdict(float, {
            bucket: 100 * seconds / timed_wall for bucket, seconds in self.self_s.items()
        })
        completed = sum(
            1 for r in results if r is not None and r.outcome is MigrationOutcome.COMPLETED
        )
        summaries = [plan.utilization["summary"] for plan in plans if plan.utilization]
        values = {
            "crypto.modexp.calls": self.calls["crypto.modexp"],
            "crypto.modexp.wall_pct": wall["crypto.modexp"],
            # The per-key LRU is the only place tables are built after import.
            "crypto.modexp.tables_built": self.caches["crypto.modexp_pk_cache"][1],
            "crypto.aes_block.calls": self.calls["crypto.aes_block"],
            "crypto.aes_block.wall_pct": wall["crypto.aes_block"],
            "crypto.aes_bulk.blocks": self.counts["crypto.aes_bulk.blocks"],
            "crypto.aes_bulk.wall_pct": wall["crypto.aes_bulk"],
            "crypto.gcm.calls": self.calls["crypto.gcm"],
            "crypto.gcm.bytes": self.counts["crypto.gcm.bytes"],
            "crypto.gcm.wall_pct": wall["crypto.gcm"],
            "crypto.cmac.calls": self.calls["crypto.cmac"],
            "crypto.cmac.wall_pct": wall["crypto.cmac"],
            "attestation.ra.handshakes": self.counts["attestation.ra.handshakes"],
            "attestation.la.handshakes": self.counts["attestation.la.handshakes"],
            "attestation.wall_pct": wall["attestation"],
            "attestation.virtual_s": self.virtual["attestation"],
            "attestation.quotes_per_migration": (
                self.label_counts["quote_generation"] / migrations if migrations else 0.0
            ),
            "sgx.ecall.calls": self.calls["sgx.ecall"],
            "sgx.ecall.wall_pct": wall["sgx.ecall"],
            "sgx.launch.calls": self.calls["sgx.launch"],
            "sgx.launch.wall_pct": wall["sgx.launch"],
            "sgx.virtual_s": self.virtual["sgx"],
            "sgx.pse.ops": sum(
                n for label, n in self.label_counts.items() if layer_of(label) == "sgx.pse"
            ),
            "sgx.pse.virtual_s": self.virtual["sgx.pse"],
            "core.migrate.wall_pct": wall["core.migrate"],
            "core.retries": sum(r.retries_used for r in results if r is not None),
            "core.completed_ratio": completed / len(results) if results else 0.0,
            "core.miglib.virtual_s": self.virtual["core.miglib"],
            "cloud.network.messages": self.network[0],
            "cloud.network.bytes": self.network[1],
            "cloud.network.wall_pct": wall["cloud.network"],
            "cloud.network.virtual_s": self.virtual["cloud.network"],
            "cloud.storage.writes": self.counts["cloud.storage.writes"],
            "cloud.storage.syncs": self.counts["cloud.storage.syncs"],
            "cloud.storage.bytes": self.counts["cloud.storage.bytes"],
            "cloud.storage.wall_pct": wall["cloud.storage"],
            "fleet.service.wall_pct": wall["fleet.service"],
            "fleet.planner.calls": self.calls["fleet.planner"],
            "fleet.planner.wall_pct": wall["fleet.planner"],
            "fleet.preflight.wall_pct": wall["fleet.preflight"],
            "fleet.journal.writes": self.calls["fleet.journal"],
            "fleet.journal.wall_pct": wall["fleet.journal"],
            "fleet.waves": sum(len(plan.waves) for plan in plans),
            "fleet.groups": sum(
                len({move.destination for move in wave.moves})
                for plan in plans
                for wave in plan.waves
            ),
            "sim.scheduler.wall_pct": wall["sim.scheduler"],
            "sim.scheduler.mean_cpu_busy_fraction": _mean(
                [s["mean_cpu_busy_fraction"] for s in summaries]
            ),
            "sim.scheduler.max_cpu_queue_depth": max(
                (s["max_cpu_queue_depth"] for s in summaries), default=0
            ),
            "sim.scheduler.mean_link_busy_fraction": _mean(
                [s["mean_link_busy_fraction"] for s in summaries]
            ),
            "sim.scheduler.max_link_concurrency": max(
                (s["max_link_concurrency"] for s in summaries), default=0
            ),
            "sim.charges": sum(self.label_counts.values()),
            "sim.virtual_charged_s": self.charged,
            "wire.calls": self.calls["wire"],
            "wire.wall_pct": wall["wire"],
            "untraced.wall_pct": 100 - sum(wall.values()),
        }
        for name, (hits, misses) in self.caches.items():
            lookups = hits + misses
            values[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
            values[f"{name}.lookups"] = lookups
        return {name: values[name] for name in PER_LAYER_UNITS if name in values}

    def reconcile(self, values: dict, *, serial_clock: bool) -> list[str]:
        """Named violations of the accounting identities (empty when sound)."""
        problems = []
        if self.unknown_labels:
            problems.append(f"charge labels with no layer: {sorted(self.unknown_labels)}")
        layer_sum = sum(self.virtual[layer] for layer in VIRTUAL_LAYERS)
        if not _isclose(layer_sum, self.charged):
            problems.append(
                f"per-layer virtual time {layer_sum!r} != charged total {self.charged!r}"
            )
        if serial_clock and not _isclose(self.charged, self.clock_delta):
            problems.append(
                f"charged total {self.charged!r} != clock delta {self.clock_delta!r}"
            )
        if not serial_clock and self.charged < self.clock_delta - 1e-9:
            problems.append(
                f"charged total {self.charged!r} < makespan {self.clock_delta!r}"
            )
        if self.virtual["faults"] != 0:
            problems.append(f"fault_delay charged {self.virtual['faults']!r} s")
        if values["untraced.wall_pct"] < 0:
            problems.append(f"untraced.wall_pct is negative: {values['untraced.wall_pct']!r}")
        return problems

    def write_chrome_trace(self, path, *, seed: int) -> None:
        document = {
            "traceEvents": [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": 1,
                    "args": {"name": f"{self.workload} seed {seed}"},
                },
                *self.events,
            ],
            "displayTimeUnit": "ms",
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
