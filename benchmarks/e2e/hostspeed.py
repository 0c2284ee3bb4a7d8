"""Host-speed probe: the yardstick the wall metrics are normalised by.

The benchmark host is a VM shared with other tenants, and its speed drifts:
over two minutes, a fixed pure-Python loop ran anywhere from 35 to 58 times a
second, with slow stretches lasting half a minute.  A run of a few seconds
cannot average that out.  So every stretch of timed work is bracketed by two
runs of a fixed probe, and its wall time is reported in *reference seconds*:
wall seconds times ``REFERENCE_S`` over the probe's mean duration at the
time.  Contention that slows the simulator slows the probe alike and
cancels; a change to the simulator's own code leaves the probe untouched and
shows in full.

The probe mirrors the simulator's instruction mix: big-integer modular
exponentiation (modexp), table lookups and XORs in pure Python (scalar AES,
GHASH), and numpy array passes (bulk AES).  It allocates no container and
runs with the garbage collector off, so the size of the workload's heap
cannot stretch it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The probe's duration on a quiet 2-vCPU Xeon VM: a reference second is a
#: wall second on a host that runs the probe this fast.
REFERENCE_S = 0.004

_MODULUS = (1 << 1024) - 105
_TABLE = tuple(range(256))
_ARRAY = np.arange(1 << 14, dtype=np.uint8)


def probe() -> float:
    """Wall seconds the fixed probe work takes right now (about 4 ms)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        x = 3
        for _ in range(24):
            x = pow(x, 65537, _MODULUS)
        acc = 0
        for i in range(24000):
            acc ^= _TABLE[(acc + i) & 255]
        for _ in range(40):
            _ARRAY ^ (_ARRAY >> 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Reference seconds per wall second for work done between two probes."""
    return REFERENCE_S / ((before + after) / 2)
