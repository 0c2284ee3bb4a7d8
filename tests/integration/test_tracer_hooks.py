"""The end-to-end benchmark's tracer still finds every hook it wraps.

``benchmarks/e2e/tracing.py`` wraps layer entry points by name, and
``Tracer.install`` raises ``TraceSetupError`` when one is gone; it also
reads the cache statistics listed in its ``_CACHES``.  Without this test
only the benchmark's smoke run, which takes minutes, would notice a renamed
hook.  The install runs in a subprocess so its wrappers never leak into the
test session.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_INSTALL = """
import sys
sys.path[:0] = [{src!r}, {e2e!r}]
import tracing
tracing.Tracer().install()
for name, stats in tracing._CACHES.items():
    counts = stats()
    counts["hits"], counts["misses"]
"""


def test_tracer_installs_and_reads_its_caches():
    code = _INSTALL.format(src=str(ROOT / "src"), e2e=str(ROOT / "benchmarks" / "e2e"))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
