"""Data model of the fleet control plane.

Everything here is *plan-time* data: which enclaves the fleet manages
(:class:`FleetMember`), what the operator allows (:class:`FleetConstraints`),
what the planner decided (:class:`MigrationPlan` — ordered :class:`Wave`\\ s
of :class:`PlannedMove`\\ s), and what execution produced
(:class:`PlanResult` with one
:class:`~repro.core.result.MigrationResult` per member).

Moves and plans are deliberately plain data — app names and machine
addresses, no live object handles — so a plan can be journaled durably
(:mod:`repro.fleet.journal`), golden-pinned as JSON, and rebuilt byte-equal
after a planner crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import wire
from repro.core.result import MigrationOutcome, MigrationResult


@dataclass(frozen=True)
class FleetMember:
    """One enclave under fleet management.

    ``tenant`` scopes quota accounting; members sharing an
    ``anti_affinity_group`` must never be co-located on one machine (e.g.
    replicas of the same service, which a single machine compromise or
    maintenance drain must not be able to take out together).
    """

    app: object  # MigratableApp; untyped to keep the model import-light
    tenant: str = "default"
    anti_affinity_group: str | None = None

    @property
    def name(self) -> str:
        return self.app.app_name

    @property
    def machine(self) -> str:
        """Current placement (tracked live through the app handle)."""
        return self.app.app.machine.address


@dataclass(frozen=True)
class FleetConstraints:
    """What the operator allows a plan to do.

    * ``machine_capacity`` — most fleet enclaves one machine may host.
    * ``capacity_headroom`` — slots that must stay *free* on a destination
      after placement (burst/failover reserve), i.e. the effective planning
      capacity is ``machine_capacity - capacity_headroom``.
    * ``max_moves_per_machine`` — per-wave cap on migrations touching one
      machine as source or destination (models ME/link concurrency).
    * ``tenant_wave_quota`` — per-wave cap on concurrent moves of one
      tenant (blast-radius limit).
    * ``tenant_plan_quota`` — total moves one tenant may contribute to a
      single plan (``None`` = unlimited); exhausting it mid-plan makes the
      intent infeasible rather than silently partial.
    """

    machine_capacity: int = 16
    capacity_headroom: int = 0
    max_moves_per_machine: int = 4
    tenant_wave_quota: int = 4
    tenant_plan_quota: int | None = None

    @property
    def effective_capacity(self) -> int:
        return self.machine_capacity - self.capacity_headroom

    def to_dict(self) -> dict:
        return {
            "machine_capacity": self.machine_capacity,
            "capacity_headroom": self.capacity_headroom,
            "max_moves_per_machine": self.max_moves_per_machine,
            "tenant_wave_quota": self.tenant_wave_quota,
            "tenant_plan_quota": self.tenant_plan_quota,
        }


@dataclass(frozen=True)
class PlannedMove:
    """One member's planned relocation (pure data, journal-able)."""

    app_name: str
    source: str
    destination: str
    tenant: str = "default"

    def to_dict(self) -> dict:
        return {
            "app": self.app_name,
            "source": self.source,
            "destination": self.destination,
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlannedMove":
        wire.typed_fields(data, app=str, source=str, destination=str, tenant=str)
        return cls(
            app_name=data["app"],
            source=data["source"],
            destination=data["destination"],
            tenant=data["tenant"],
        )

    def claims(self) -> frozenset[tuple]:
        """Resources this move occupies while in flight: both endpoint
        machines (ME/CPU work happens on each).

        The pipelined dispatcher admits a group only when no earlier
        unfinished group holds an intersecting claim.  No link is claimed:
        two moves over one link already share both of its machines.
        """
        return frozenset(
            {("machine", self.source), ("machine", self.destination)}
        )


@dataclass(frozen=True)
class Wave:
    """One batch of moves executed together (and journaled as one unit)."""

    index: int
    moves: tuple[PlannedMove, ...]


@dataclass(frozen=True)
class MigrationPlan:
    """The planner's output: ordered waves satisfying the constraints."""

    intent: str  # e.g. "drain:fleet-0", "rebalance", "evacuate:tenant-a"
    waves: tuple[Wave, ...]
    constraints: FleetConstraints = field(default_factory=FleetConstraints)

    @property
    def moves(self) -> list[PlannedMove]:
        return [move for wave in self.waves for move in wave.moves]

    def to_dict(self) -> dict:
        """JSON-able form (the golden-pin and CLI ``plan`` format)."""
        return {
            "intent": self.intent,
            "constraints": self.constraints.to_dict(),
            "waves": [
                [move.to_dict() for move in wave.moves] for wave in self.waves
            ],
        }


def already_complete_result(app) -> MigrationResult:
    """Synthesized result for a member found already migrated during
    :meth:`~repro.fleet.service.FleetService.resume_plan` reconciliation
    (its journal is cleared and the enclave serves at the destination — the
    crash happened after the member finished but before the fleet journal
    recorded the wave as done)."""
    return MigrationResult(
        outcome=MigrationOutcome.COMPLETED,
        txn_id="(reconciled)",
        enclave=app.enclave,
        diagnostics={"reconciled": True},
    )


@dataclass
class WaveOutcome:
    """Execution record of one wave: per-member typed results."""

    index: int
    moves: tuple[PlannedMove, ...]
    results: dict[str, MigrationResult] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return all(bool(self.results.get(m.app_name)) for m in self.moves)


@dataclass
class PlanResult:
    """What applying (or resuming) a plan actually did."""

    intent: str
    waves: list[WaveOutcome] = field(default_factory=list)
    resumed: bool = False
    #: Waves the resume path found already marked done in the fleet journal
    #: (their members migrated before the planner crash; no new results).
    skipped_waves: int = 0
    #: Groups skipped by group-granular resume inside partially-done waves.
    skipped_groups: int = 0
    #: Scheduler utilization report for pipelined dispatch (whole plan, or
    #: the shared schedule when executed via ``apply_many``/``resume_many``;
    #: ``None`` under serial dispatch).
    utilization: dict | None = None

    @property
    def completed(self) -> bool:
        return all(wave.completed for wave in self.waves)

    def result_for(self, app_name: str) -> MigrationResult | None:
        for wave in self.waves:
            if app_name in wave.results:
                return wave.results[app_name]
        return None

    def summary(self) -> str:
        lines = [f"plan {self.intent}: {len(self.waves)} wave(s) executed"]
        if self.skipped_waves:
            lines[0] += f", {self.skipped_waves} already done"
        for wave in self.waves:
            outcomes = ", ".join(
                f"{name}={result.outcome.value}"
                for name, result in sorted(wave.results.items())
            )
            lines.append(f"  wave {wave.index}: {outcomes or '(empty)'}")
        lines.append("status: " + ("completed" if self.completed else "INCOMPLETE"))
        return "\n".join(lines)
