"""Deterministic fault injection for the simulated data center.

``repro.faults`` turns "what if this exact message is lost / this machine
dies right here?" into replayable experiments: declare a
:class:`~repro.faults.plan.FaultPlan`, hand it to a
:class:`~repro.faults.injector.FaultInjector` attached to the
:class:`~repro.cloud.network.Network`, and every run with the same seed
injects the identical fault at the identical protocol step.  The same
injector also attaches to each machine's
:class:`~repro.cloud.storage.UntrustedStorage` to drive the disk fault
model (torn/lost writes, bit rot, stale reads).  The
:mod:`repro.faults.chaos` harness builds on this: one scenario loop sweeps
message, wave, disk, planner-kill and cloning faults and checks the paper's
R3/R4 invariants after recovery.
"""

from repro.faults.injector import (
    DiskOp,
    FaultInjector,
    FiredDiskFault,
    FiredFault,
    ObservedMessage,
)
from repro.faults.plan import (
    DISK_FAULT_KINDS,
    Corrupt,
    CrashMachine,
    Delay,
    DiskFaultRule,
    Drop,
    Duplicate,
    FaultAction,
    FaultPlan,
    FaultRule,
    Hook,
    MessageMatch,
)

__all__ = [
    "Corrupt",
    "CrashMachine",
    "Delay",
    "DISK_FAULT_KINDS",
    "DiskFaultRule",
    "DiskOp",
    "Drop",
    "Duplicate",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "FiredDiskFault",
    "FiredFault",
    "Hook",
    "MessageMatch",
    "ObservedMessage",
]
