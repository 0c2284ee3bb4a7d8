"""Fleet migration control plane: planner, pre-flight, executor, journal.

Operator intents (``drain``, ``rebalance``, ``evacuate``) become ordered
:class:`MigrationPlan` waves under :class:`FleetConstraints`;
:class:`FleetService` executes them through the unified
:class:`~repro.core.api.MigrationRequest` path with durable progress
journaling (:class:`FleetPlanJournal`), so a planner crash at any wave
boundary is recoverable via :meth:`FleetService.resume_plan`.

:class:`SingleInstanceRegistry` (``repro.fleet.registry``) is the fleet's
clone-detection arbiter: at most one live instance per guarded enclave
identity (invariant R3 against the cloning-window attacks of Briongos et
al.), enforced through epoch-monotonic claims, host-bound liveness probes,
and ME heartbeats, with deny-by-default when the registry is unreachable.
"""

from repro.errors import (
    CloneDetectedError,
    FencedInstanceError,
    PlanInfeasibleError,
    PreflightError,
    RegistryUnavailableError,
)
from repro.fleet.journal import FleetPlanJournal, FleetPlanRecord
from repro.fleet.model import (
    FleetConstraints,
    FleetMember,
    MigrationPlan,
    PlanResult,
    PlannedMove,
    Wave,
    WaveOutcome,
)
from repro.fleet.planner import (
    pack_waves,
    plan_drain,
    plan_evacuate,
    plan_rebalance,
)
from repro.fleet.preflight import run_preflight
from repro.fleet.registry import CloneIncident, SingleInstanceRegistry
from repro.fleet.service import FleetService

__all__ = [
    "CloneDetectedError",
    "CloneIncident",
    "FencedInstanceError",
    "FleetConstraints",
    "FleetMember",
    "FleetPlanJournal",
    "FleetPlanRecord",
    "FleetService",
    "MigrationPlan",
    "PlanInfeasibleError",
    "PlanResult",
    "PlannedMove",
    "PreflightError",
    "RegistryUnavailableError",
    "SingleInstanceRegistry",
    "Wave",
    "WaveOutcome",
    "pack_waves",
    "plan_drain",
    "plan_evacuate",
    "plan_rebalance",
    "run_preflight",
]
