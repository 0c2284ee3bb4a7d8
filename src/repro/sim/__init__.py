"""Simulation substrate: virtual time, calibrated cost model, deterministic
RNG, and the discrete-event scheduler for concurrent virtual-time work."""

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import (
    Charge,
    EventQueue,
    Process,
    Scheduler,
    Sleep,
    TraceRecorder,
)

__all__ = [
    "VirtualClock",
    "CostMeter",
    "CostModel",
    "DeterministicRng",
    "Charge",
    "EventQueue",
    "Process",
    "Scheduler",
    "Sleep",
    "TraceRecorder",
]
