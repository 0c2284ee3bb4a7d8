"""Crash-at-every-boundary property for every durable single-file writer.

Each writer promises: at *every* instant — between any two storage
operations of any rewrite, with or without an injected tear on the temp
file — a crash leaves its record readable as either the complete previous
value or the complete new one, and a parse failure reads as absent
(counted), never as an exception.  This test enumerates all those instants
instead of sampling them, by crashing the storage after the Nth
``write``/``sync``/``rename``/``delete`` of the real writer: the ops are
wrapped on the storage *instance*, so the calls that
:meth:`UntrustedStorage.write_atomic` makes on the writer's behalf count
too.
"""

from dataclasses import dataclass, replace
from typing import Any, Callable

import pytest

from repro import wire
from repro.cloud.storage import (
    MigrationJournal,
    MigrationRecord,
    PHASE_ARRIVED,
    PHASE_PREPARE,
    PHASE_SHIPPED,
    UntrustedStorage,
)
from repro.fleet.journal import FleetPlanIndex, FleetPlanJournal, FleetPlanRecord
from repro.fleet.registry import InstanceRecord, SingleInstanceRegistry
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng

PHASES = (PHASE_PREPARE, PHASE_SHIPPED, PHASE_ARRIVED)
STORAGE_OPS = ("write", "sync", "rename", "delete")
IDENTITY = b"enclave-identity-0123456789abcdef"
INSTANCE = b"instance-a"


def record_for(step: int) -> MigrationRecord:
    return MigrationRecord(
        txn_id="txn-prop",
        role="source" if step % 2 == 0 else "destination",
        phase=PHASES[step % len(PHASES)],
        source="machine-a",
        destination="machine-b",
        retries=step,
    )


def plan_for(step: int) -> FleetPlanRecord:
    return FleetPlanRecord(
        intent="drain fleet-0", waves=(), next_wave=step, wave_started=True
    )


def labels_for(step: int) -> list[str]:
    return [f"plan-{index}" for index in range(step + 1)]


def instance_for(step: int) -> InstanceRecord:
    return InstanceRecord(
        identity=IDENTITY, holder=INSTANCE, machine="machine-a", epoch=step + 1
    )


def _claim(registry: SingleInstanceRegistry, step: int) -> None:
    registry.claim(
        IDENTITY, INSTANCE, machine="machine-a", epoch=step + 1, kind="new"
    )


@dataclass(frozen=True)
class Writer:
    """One durable single-file writer under test.

    ``write(subject, step)`` performs the step-th rewrite; ``read(subject)``
    returns the surviving value, or ``None`` when the record reads as
    absent; ``expected(step)`` is exactly what the step-th rewrite
    persisted."""

    name: str
    path: str
    make: Callable[[UntrustedStorage], Any]
    write: Callable[[Any, int], None]
    read: Callable[[Any], Any]
    expected: Callable[[int], Any]


WRITERS = [
    Writer(
        name="write_atomic",
        path="app/record",
        make=lambda storage: storage,
        write=lambda storage, step: storage.write_atomic(
            "app/record", wire.encode({"step": step, "pad": bytes(step + 8)})
        ),
        read=lambda storage: storage.read_record("app/record", wire.decode),
        expected=lambda step: {"step": step, "pad": bytes(step + 8)},
    ),
    Writer(
        name="MigrationJournal",
        path="app/migration_txn",
        make=lambda storage: MigrationJournal(storage, "app"),
        write=lambda journal, step: journal.write(record_for(step)),
        read=lambda journal: journal.read(),
        expected=lambda step: replace(record_for(step), generation=step + 1),
    ),
    Writer(
        name="FleetPlanJournal",
        path="fleet/fleet_plan",
        make=FleetPlanJournal,
        write=lambda journal, step: journal.write(plan_for(step)),
        read=lambda journal: journal.read(),
        expected=lambda step: replace(plan_for(step), generation=step + 1),
    ),
    Writer(
        name="FleetPlanIndex",
        path="fleet/plans_index",
        make=FleetPlanIndex,
        write=lambda index, step: index.write(labels_for(step)),
        read=lambda index: index.read() or None,
        expected=labels_for,
    ),
    Writer(
        name="SingleInstanceRegistry",
        path="fleet/instance_registry",
        make=lambda storage: SingleInstanceRegistry(
            storage, CostMeter(CostModel(), VirtualClock(), DeterministicRng(0))
        ),
        write=_claim,
        read=lambda registry: registry.record_of(IDENTITY),
        expected=instance_for,
    ),
]

OPS_PER_WRITE = 3
NUM_WRITES = 4
BOUNDARIES = range(OPS_PER_WRITE * NUM_WRITES + 1)


class _PowerCut(Exception):
    """Raised in place of the storage op the power cut interrupts."""


def run_to_boundary(writer: Writer, boundary: int, torn_tmp: bool):
    """Run ``NUM_WRITES`` rewrites, cut the power before storage op number
    ``boundary`` (or after the last one), and return the writer's subject
    over the crashed storage."""
    storage = UntrustedStorage("prop-machine")
    subject = writer.make(storage)
    executed = 0

    def counted(op):
        def run(*args):
            nonlocal executed
            if executed == boundary:
                raise _PowerCut
            executed += 1
            return op(*args)

        return run

    for name in STORAGE_OPS:
        setattr(storage, name, counted(getattr(storage, name)))
    try:
        for step in range(NUM_WRITES):
            writer.write(subject, step)
    except _PowerCut:
        pass
    for name in STORAGE_OPS:
        delattr(storage, name)
    # Every rewrite is one write-temp -> fsync -> rename; anything else
    # would shift the boundaries this test enumerates.
    assert executed == min(boundary, OPS_PER_WRITE * NUM_WRITES)
    tmp = f"{writer.path}.tmp"
    if torn_tmp and tmp in storage._unsynced and storage.exists(tmp):
        # Worst case: the in-flight temp write tears mid-blob.
        blob = storage._blobs[tmp]
        if len(blob) > 1:
            storage._torn[tmp] = len(blob) // 2
    storage.crash()
    return subject


@pytest.mark.parametrize("writer", WRITERS, ids=lambda writer: writer.name)
@pytest.mark.parametrize("torn_tmp", [False, True])
@pytest.mark.parametrize("boundary", BOUNDARIES)
def test_crash_at_every_boundary_yields_whole_record_or_none(
    boundary, torn_tmp, writer
):
    subject = run_to_boundary(writer, boundary, torn_tmp)
    read = writer.read(subject)  # must never raise
    if read is None:
        return  # corrupt == absent; recovery treats it as a cold start
    # Whatever survived is one of the values actually written, whole —
    # no byte-blended frankenrecords.
    assert read in [writer.expected(step) for step in range(NUM_WRITES)]


def test_completed_writes_are_always_readable():
    """With no fault injected, a crash after write K always reads value K."""
    for writer in WRITERS:
        for boundary in range(
            OPS_PER_WRITE, OPS_PER_WRITE * NUM_WRITES + 1, OPS_PER_WRITE
        ):
            subject = run_to_boundary(writer, boundary, torn_tmp=False)
            expected = writer.expected(boundary // OPS_PER_WRITE - 1)
            assert writer.read(subject) == expected, writer.name
