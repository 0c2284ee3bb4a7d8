"""The end-to-end benchmark's tracer still finds every hook it wraps and
every figure it reads.

``benchmarks/e2e/tracing.py`` wraps layer entry points by name, and
``Tracer.install`` raises ``TraceSetupError`` when one is gone; it also
reads the cache statistics listed in its ``_CACHES``, and ``Tracer.metrics``
reads the scheduler's utilization summary of each ``PlanResult``.  Without
this test only the benchmark's smoke run, which takes minutes, would notice
a renamed hook or a dropped summary key.  The trace runs in a subprocess so
its wrappers never leak into the test session.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_TRACE = """
import sys
sys.path[:0] = [{src!r}, {e2e!r}]
import tracing
from repro.fleet.demo import build_demo_fleet

tracer = tracing.Tracer()
tracer.install()
for name, stats in tracing._CACHES.items():
    counts = stats()
    counts["hits"], counts["misses"]

demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
service, window = demo.service, frozenset({{"fleet-0", "fleet-1"}})
tracer.start("window_drain", demo.dc)
plans = service.apply_many([
    (lambda machine=machine: service.plan_drain(machine, exclude=window))
    for machine in sorted(window)
])
tracer.stop()
assert plans and all(plan.utilization for plan in plans)
results = [
    result for plan in plans for wave in plan.waves for result in wave.results.values()
]
metrics = tracer.metrics(
    timed_wall=1.0, results=results, plans=plans, migrations=len(results)
)
assert metrics["sim.scheduler.max_cpu_queue_depth"] >= 1, metrics
"""


def test_tracer_installs_and_reads_its_caches():
    code = _TRACE.format(src=str(ROOT / "src"), e2e=str(ROOT / "benchmarks" / "e2e"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
