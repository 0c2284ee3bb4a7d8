"""A network adversary for tests, on the network's one interception seam.

:func:`tap` attaches a :class:`~repro.faults.injector.FaultInjector` whose
only rule is a hook with no trigger limit, so the hook sees every request
and response leg as ``hook(src, dst, payload, direction)`` and returns the
payload to deliver, changed or not, or ``None`` to drop the message.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, HookFn
from repro.sim.rng import DeterministicRng


@contextmanager
def tap(network, hook: HookFn):
    """Run ``hook`` on every message leg of ``network`` inside the block."""
    assert network.fault_injector is None, "the network already has an injector"
    network.fault_injector = FaultInjector(
        plan=FaultPlan().hook(hook, max_triggers=sys.maxsize),
        rng=DeterministicRng(0, "tap"),
    )
    try:
        yield
    finally:
        network.fault_injector = None
