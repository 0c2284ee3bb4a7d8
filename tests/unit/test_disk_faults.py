"""The disk fault model: write-back durability, the four fault kinds, and
the self-healing primitives (tombstone replay, heal, atomic rename).

Companion to the network-fault tests in test_faults.py; the end-to-end
sweep that crosses these faults with the migration protocol lives in
``repro.faults.chaos --disk``.
"""

import pytest

from repro import wire
from repro.cloud.storage import (
    MigrationJournal,
    MigrationRecord,
    PHASE_PREPARE,
    PHASE_SHIPPED,
    StorageError,
    UntrustedStorage,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import DiskFaultRule, FaultPlan
from repro.sim.rng import DeterministicRng


def make_injector(plan, seed=7):
    return FaultInjector(plan=plan, rng=DeterministicRng(seed).child("disk"))


def attached(storage, plan, seed=7):
    injector = make_injector(plan, seed)
    storage.fault_injector = injector
    return injector


class TestWriteBackDurability:
    def test_unsynced_write_vanishes_at_crash(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"one")
        assert storage.read("a") == b"one"  # visible immediately
        storage.crash()
        assert not storage.exists("a")

    def test_synced_write_survives_crash(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"one")
        storage.sync("a")
        storage.crash()
        assert storage.read("a") == b"one"

    def test_sync_without_path_flushes_everything(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"one")
        storage.write("b", b"two")
        storage.sync()
        storage.crash()
        assert storage.read("a") == b"one"
        assert storage.read("b") == b"two"

    def test_unsynced_delete_resurrects_at_crash(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"one")
        storage.sync("a")
        storage.delete("a")
        assert not storage.exists("a")
        storage.crash()
        assert storage.read("a") == b"one"

    def test_unsynced_overwrite_reverts_to_previous_durable(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"old")
        storage.sync("a")
        storage.write("a", b"new")
        storage.crash()
        assert storage.read("a") == b"old"


class TestTornWrite:
    def test_tear_materializes_as_prefix_new_suffix_old(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"AAAAAAAA")
        storage.sync("a")
        attached(storage, FaultPlan().torn_write("a"))
        storage.write("a", b"BBBBBBBB")
        storage.sync("a")  # the drive acks; the lie surfaces at power loss
        storage.crash()
        blob = storage.read("a")
        assert blob != b"BBBBBBBB" and blob != b"AAAAAAAA"
        offset = len(blob) - len(blob.lstrip(b"B")) if blob.startswith(b"B") else 0
        assert blob == b"B" * offset + b"A" * (8 - offset)

    def test_tear_offset_is_seed_deterministic(self):
        def run():
            storage = UntrustedStorage("m")
            storage.write("a", b"x" * 64)
            storage.sync("a")
            attached(storage, FaultPlan().torn_write("a"), seed=11)
            storage.write("a", bytes(range(64)))
            storage.sync("a")
            storage.crash()
            return storage.read("a")

        assert run() == run()

    def test_fresh_write_supersedes_pending_tear(self):
        storage = UntrustedStorage("m")
        attached(storage, FaultPlan().torn_write("a"))
        storage.write("a", b"torn-candidate")
        storage.fault_injector = None
        storage.write("a", b"clean")  # second write clears the tear mark
        storage.sync("a")
        storage.crash()
        assert storage.read("a") == b"clean"


class TestLostWrite:
    def test_lying_sync_drops_data_at_crash(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"old")
        storage.sync("a")
        attached(storage, FaultPlan().lost_write("a"))
        storage.write("a", b"new")
        storage.sync("a")  # acks without persisting
        assert storage.read("a") == b"new"  # page cache still serves it
        storage.crash()
        assert storage.read("a") == b"old"


class TestBitRot:
    def test_rot_is_persistent_but_history_stays_pristine(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"pristine-bytes")
        storage.sync("a")
        attached(storage, FaultPlan().bit_rot("a"))
        rotted = storage.read("a")
        assert rotted != b"pristine-bytes"
        storage.fault_injector = None
        assert storage.read("a") == rotted  # the medium stays decayed
        storage.crash()
        assert storage.read("a") == rotted  # ... even across power loss
        assert storage.versions("a")[-1] == b"pristine-bytes"

    def test_rot_flips_exactly_one_byte(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"\x00" * 32)
        storage.sync("a")
        attached(storage, FaultPlan().bit_rot("a"))
        rotted = storage.read("a")
        assert sum(1 for b in rotted if b != 0) == 1


class TestStaleRead:
    def test_returns_previous_version_once(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"v1")
        storage.sync("a")
        storage.write("a", b"v2")
        storage.sync("a")
        attached(storage, FaultPlan().stale_read("a"))
        assert storage.read("a") == b"v1"  # the stale firmware answer
        assert storage.read("a") == b"v2"  # max_triggers=1: back to truth

    def test_no_previous_version_returns_current(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"only")
        storage.sync("a")
        attached(storage, FaultPlan().stale_read("a"))
        assert storage.read("a") == b"only"


class TestRuleMatching:
    def test_nth_counts_matching_ops_only(self):
        storage = UntrustedStorage("m")
        attached(storage, FaultPlan().torn_write("a", nth=1))
        storage.write("other", b"x")  # does not advance the counter
        storage.write("a", b"first")  # nth=0: not matched
        storage.write("a", b"second")  # nth=1: tear marked
        storage.sync()
        storage.crash()
        assert storage.read("other") == b"x"
        assert storage.read("a") != b"second"

    def test_machine_filter(self):
        storage = UntrustedStorage("m")
        attached(storage, FaultPlan().lost_write("a", machine="elsewhere"))
        storage.write("a", b"data")
        storage.sync("a")
        storage.crash()
        assert storage.read("a") == b"data"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DiskFaultRule("head_crash")


class TestAdversaryArchive:
    def test_delete_leaves_tombstone_in_history(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"v1")
        storage.delete("a")
        assert storage.versions("a") == [b"v1", None]

    def test_replay_restores_a_deleted_blob(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"v1")
        storage.sync("a")
        storage.delete("a")
        storage.sync("a")
        storage.replay("a", 0)
        assert storage.read("a") == b"v1"
        storage.crash()
        assert storage.read("a") == b"v1"  # adversary wrote the platter

    def test_replaying_a_tombstone_redeletes(self):
        storage = UntrustedStorage("m")
        storage.write("a", b"v1")
        storage.delete("a")
        storage.write("a", b"v2")
        storage.replay("a", 1)
        assert not storage.exists("a")

    def test_heal_restores_newest_archived_version(self):
        storage = UntrustedStorage("m")
        storage.write("app/state", b"good")
        storage.sync("app/state")
        storage.corrupt("app/state")
        assert storage.read("app/state") != b"good"
        assert storage.heal("app/state*") == ["app/state"]
        assert storage.read("app/state") == b"good"

    def test_heal_skips_blobs_already_current(self):
        storage = UntrustedStorage("m")
        storage.write("app/state", b"good")
        storage.sync("app/state")
        assert storage.heal("app/*") == []

    def test_corrupt_empty_blob_raises_storage_error(self):
        # Regression: this used to die with ZeroDivisionError.
        storage = UntrustedStorage("m")
        storage.write("a", b"")
        with pytest.raises(StorageError):
            storage.corrupt("a")

    def test_corrupt_missing_blob_raises_storage_error(self):
        storage = UntrustedStorage("m")
        with pytest.raises(StorageError):
            storage.corrupt("ghost")


class TestRenameAtomicity:
    def test_rename_of_durable_source_is_immediately_durable(self):
        storage = UntrustedStorage("m")
        storage.write("tmp", b"new")
        storage.sync("tmp")
        storage.rename("tmp", "live")
        storage.crash()
        assert storage.read("live") == b"new"

    def test_rename_of_unsynced_source_keeps_previous_target_at_crash(self):
        # ext4 data=ordered: names never mix with stale inodes, so the
        # target holds its complete previous content after the crash.
        storage = UntrustedStorage("m")
        storage.write("live", b"old")
        storage.sync("live")
        storage.write("tmp", b"new")
        storage.rename("tmp", "live")  # no sync of tmp first
        assert storage.read("live") == b"new"  # buffered view
        storage.crash()
        assert storage.read("live") == b"old"

    def test_rename_transfers_a_tear_to_the_target(self):
        storage = UntrustedStorage("m")
        storage.write("live", b"OOOOOOOO")
        storage.sync("live")
        attached(storage, FaultPlan().torn_write("tmp"))
        storage.write("tmp", b"NNNNNNNN")
        storage.sync("tmp")
        storage.fault_injector = None
        storage.rename("tmp", "live")
        storage.crash()
        blob = storage.read("live")
        assert blob != b"NNNNNNNN" and b"O" in blob


class TestMigrationJournal:
    @staticmethod
    def record(phase=PHASE_PREPARE, retries=0):
        return MigrationRecord(
            txn_id="txn-1",
            role="source",
            phase=phase,
            source="machine-a",
            destination="machine-b",
            retries=retries,
        )

    def test_generation_increments_per_rewrite(self):
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        journal.write(self.record())
        journal.write(self.record(phase=PHASE_SHIPPED))
        read = journal.read()
        assert read.phase == PHASE_SHIPPED
        assert read.generation == 2

    def test_corrupted_journal_reads_as_none_and_is_counted(self):
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        journal.write(self.record())
        storage.corrupt(journal.path)
        assert journal.read() is None
        assert storage.journal_corruption_count == 1

    def test_deeply_nested_record_reads_as_none_and_is_counted(self):
        """A host-written record of 5,000 nested lists is unparseable like any
        other rotted record: counted, and read as absent."""
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        lists = (b"\x04" + (1).to_bytes(4, "big")) * 4_999 + b"\x04" + bytes(4)
        storage.write(journal.path, b"RPR1" + bytes((0, 1, 0, 3)) + b"txn" + lists)
        assert journal.read() is None
        assert storage.journal_corruption_count == 1

    def test_mistyped_field_reads_as_none_and_restarts_generation(self):
        """A host-written record whose ``gen`` decodes to a string is corrupt
        like a rotted one: counted, read as absent, and the next write
        starts the generation over instead of failing on it."""
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        fields = wire.decode(self.record().to_bytes())
        fields["gen"] = "x"
        storage.write(journal.path, wire.encode(fields))
        assert journal.read() is None
        assert storage.journal_corruption_count == 1
        journal.write(self.record(phase=PHASE_SHIPPED))
        assert journal.read().generation == 1

    def test_write_over_corrupted_journal_counts_and_restarts_generation(self):
        # One corruption rule for every durable record: the generation
        # lookup inside write() is a read like any other, so an unparseable
        # record counts once and the new record starts the sequence over.
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        journal.write(self.record())
        journal.write(self.record())
        storage.corrupt(journal.path)
        journal.write(self.record(phase=PHASE_SHIPPED))
        assert storage.journal_corruption_count == 1
        read = journal.read()
        assert read.phase == PHASE_SHIPPED
        assert read.generation == 1
        assert storage.journal_corruption_count == 1

    def test_write_is_atomic_across_crash(self):
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        journal.write(self.record())
        # Start a rewrite whose temp never becomes durable:
        attached(storage, FaultPlan().lost_write(f"{journal.path}.tmp"))
        journal.write(self.record(phase=PHASE_SHIPPED))
        storage.crash()
        read = journal.read()  # the complete previous record, not garbage
        assert read is not None and read.phase == PHASE_PREPARE

    def test_clear_removes_record_and_temp(self):
        storage = UntrustedStorage("m")
        journal = MigrationJournal(storage, "app")
        journal.write(self.record())
        journal.clear()
        storage.crash()
        assert journal.read() is None
