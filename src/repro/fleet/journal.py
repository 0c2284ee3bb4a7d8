"""Durable persistence of fleet plans (the control plane's crash safety).

The fleet journal lives on one designated *control machine*'s untrusted
storage and records the whole plan plus a tiny progress cursor:

* ``next_wave`` — first wave not yet marked done;
* ``wave_started`` — whether that wave's dispatch began (so a resuming
  planner knows it must *reconcile* the wave member-by-member instead of
  blindly re-dispatching — re-dispatching a completed member would try to
  migrate an enclave that already left).

Both records here are written with
:meth:`~repro.cloud.storage.UntrustedStorage.write_atomic` and read with
:meth:`~repro.cloud.storage.UntrustedStorage.read_record`, like the per-app
:class:`~repro.cloud.storage.MigrationJournal`: the path holds the complete
previous record or the complete new one, a rotted record reads as absent
(counted), and the plan's generation counter makes a resurrected stale
record (a lying fsync) detectable.

Like the per-app journal, this record is a recovery *hint*: losing it stalls
fleet resumption (the operator re-plans), but R3/R4 never depend on it —
every member's own migration journal and the trusted layers carry the
correctness argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro import wire
from repro.cloud.storage import UntrustedStorage
from repro.errors import MigrationError
from repro.fleet.model import PlannedMove, MigrationPlan, Wave

FLEET_PLAN_PATH = "fleet_plan"
FLEET_PLAN_INDEX_PATH = "fleet/plans_index"


def group_key(wave_index: int, destination: str) -> str:
    """The journal's name for one (wave, destination) dispatch group."""
    return f"{wave_index}:{destination}"


@dataclass(frozen=True)
class FleetPlanRecord:
    """The persisted plan + progress cursor.

    ``done_groups`` (record v2) lists the (wave, destination) dispatch
    groups of the *current* wave whose members all completed — entries are
    ``"{wave_index}:{destination}"`` strings, pruned every time the wave
    cursor advances.  A resuming planner skips those groups instead of
    re-reconciling every member of a partially-done wave.  v1 records decode
    with the list empty: resume falls back to full-wave reconciliation,
    which is slower but equally safe.
    """

    intent: str
    waves: tuple[tuple[PlannedMove, ...], ...]
    next_wave: int = 0
    wave_started: bool = False
    generation: int = 0
    done_groups: tuple[str, ...] = ()

    def to_bytes(self) -> bytes:
        return wire.encode(
            {
                "v": 2,
                "intent": self.intent,
                "waves": [
                    wire.pack_records([move.to_dict() for move in wave])
                    for wave in self.waves
                ],
                "next_wave": self.next_wave,
                "wave_started": self.wave_started,
                "gen": self.generation,
                "done_groups": list(self.done_groups),
            }
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "FleetPlanRecord":
        fields = wire.typed_fields(
            {"gen": 0, "done_groups": [], **wire.decode(data)},
            intent=str, waves=list, next_wave=int, wave_started=bool, gen=int,
            done_groups=list,
        )
        return cls(
            intent=fields["intent"],
            waves=tuple(
                tuple(
                    PlannedMove.from_dict(row)
                    for row in wire.unpack_records(wave)
                )
                for wave in fields["waves"]
            ),
            next_wave=fields["next_wave"],
            wave_started=fields["wave_started"],
            generation=fields["gen"],
            done_groups=tuple(fields["done_groups"]),
        )

    @classmethod
    def from_plan(cls, plan: MigrationPlan) -> "FleetPlanRecord":
        return cls(
            intent=plan.intent,
            waves=tuple(wave.moves for wave in plan.waves),
        )

    def plan_waves(self) -> tuple[Wave, ...]:
        return tuple(
            Wave(index=index, moves=moves)
            for index, moves in enumerate(self.waves)
        )


@dataclass
class FleetPlanJournal:
    """The fleet plan record on the control machine's disk."""

    storage: UntrustedStorage
    owner: str = "fleet"

    @property
    def path(self) -> str:
        return f"{self.owner}/{FLEET_PLAN_PATH}"

    def write(self, record: FleetPlanRecord) -> None:
        """Persist ``record`` one generation past the journaled record it
        was derived from, whose ``generation`` it carries.  A record never
        journaled (generation 0, such as a fresh plan) goes one past
        whatever the path holds, which costs a read."""
        generation = record.generation
        if not generation:
            current = self.read()
            generation = current.generation if current else 0
        record = replace(record, generation=generation + 1)
        self.storage.write_atomic(self.path, record.to_bytes())

    def write_plan(self, plan: MigrationPlan) -> None:
        """Persist a fresh plan with the cursor at wave 0, not started."""
        self.write(FleetPlanRecord.from_plan(plan))

    def mark_wave_started(self, index: int) -> None:
        record = self._require()
        self.write(replace(record, next_wave=index, wave_started=True))

    def mark_wave_done(self, index: int) -> None:
        record = self._require()
        self.write(
            replace(
                record, next_wave=index + 1, wave_started=False, done_groups=()
            )
        )

    def mark_group_done(self, index: int, destination: str) -> None:
        """Record one (wave, destination) group as fully completed.

        Idempotent; group entries accumulate within the current wave and
        are pruned by :meth:`mark_wave_done` when the cursor advances.
        """
        record = self._require()
        entry = group_key(index, destination)
        if entry in record.done_groups:
            return
        self.write(replace(record, done_groups=record.done_groups + (entry,)))

    def read(self) -> FleetPlanRecord | None:
        """The journaled plan, or ``None``.  A rotted record reads as no
        plan: resumption stalls (the operator re-plans) but nothing unsafe
        can happen — every member still has its own migration journal."""
        return self.storage.read_record(self.path, FleetPlanRecord.from_bytes)

    def _require(self) -> FleetPlanRecord:
        record = self.read()
        if record is None:
            raise MigrationError(f"no fleet plan journaled at {self.path!r}")
        return record

    def clear(self) -> None:
        self.storage.delete_durably(self.path)


@dataclass
class FleetPlanIndex:
    """Directory of the per-plan journals a multi-plan dispatch created.

    ``apply_many`` journals each tenant plan under its own owner prefix
    (``plan-0``, ``plan-1``, ...) so crash/resume reconciles every plan
    independently; this index is what lets ``resume_many`` *find* them
    after a planner restart.  Same durable-record primitives, same
    hint-only stakes: a lost index stalls multi-plan resumption, never
    correctness.
    """

    storage: UntrustedStorage

    @property
    def path(self) -> str:
        return FLEET_PLAN_INDEX_PATH

    def write(self, labels: list[str]) -> None:
        self.storage.write_atomic(
            self.path, wire.encode({"v": 1, "labels": list(labels)})
        )

    def read(self) -> list[str]:
        labels = self.storage.read_record(
            self.path,
            lambda blob: wire.typed_fields(wire.decode(blob), labels=list)["labels"],
        )
        return labels or []

    def clear(self) -> None:
        self.storage.delete_durably(self.path)
