"""Crash/resume integration: interrupted migrations are driven to completion.

Each test builds the two-machine chaos world, injects one precisely placed
fault (message drop or machine crash), then exercises ``MigratableApp.resume``
— the Section VI-C recovery protocol — and checks the R3/R4 invariants.
"""

import pytest

from repro import wire
from repro.cloud.storage import PHASE_PREPARE, MigrationJournal
from repro.core.migration_enclave import MigrationEnclave
from repro.core.protocol import reinstall_migration_enclave
from repro.core.result import MigrationOutcome, MigrationResult
from repro.core.retry import NO_RETRY, RetryPolicy
from repro.errors import MigrationError, ReproError
from repro.faults.chaos import (
    COUNTER_TARGET,
    DESTINATION,
    SOURCE,
    build_world,
    check_invariants,
    probe_message_sequence,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan


def attach(world, plan):
    world.dc.network.fault_injector = FaultInjector(
        plan=plan,
        rng=world.dc.rng.child("test-faults"),
        machines=dict(world.dc.machines),
        meter=world.dc.meter,
    )


def detach(world):
    world.dc.network.fault_injector = None


def machines_with_incoming(world):
    """Machines whose ME holds a record waiting for the app's build."""
    mrenclave = world.app.enclave.identity.mrenclave
    return [
        name
        for name, machine in world.dc.machines.items()
        for enclave in machine.enclaves
        if enclave.enclave_class is MigrationEnclave
        and enclave.alive
        and enclave.ecall("has_incoming", mrenclave)
    ]


class TestSourceCrashResume:
    def test_source_crash_during_shipment(self):
        """Power failure on the source while migrate_out is on the wire: the
        frozen library state persisted before shipping, so a restore + retry
        at the source finishes the migration."""
        world = build_world(seed=101)
        dc, app = world.dc, world.app
        attach(world, FaultPlan().crash_machine(SOURCE, msg_type="la_rec"))
        with pytest.raises(ReproError):
            app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        detach(world)

        # The journal survives on the source disk; operator restores the ME.
        record = MigrationJournal(dc.machine(SOURCE).storage, app.app_name).read()
        assert record is not None and record.role == "source"
        reinstall_migration_enclave(dc, dc.machine(SOURCE), world.me_signer)

        result = app.resume(migrate_vm=False)
        assert result.outcome is MigrationOutcome.RESUMED
        assert result.txn_id == record.txn_id
        assert result.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []
        # journals are cleared on both machines once the migration lands
        assert MigrationJournal(dc.machine(SOURCE).storage, app.app_name).read() is None
        assert (
            MigrationJournal(dc.machine(DESTINATION).storage, app.app_name).read()
            is None
        )

    def test_source_crash_before_any_shipment(self):
        """Crash during the source's local attestation with its ME: nothing
        ever left the machine, so resume re-runs the whole flow."""
        world = build_world(seed=102)
        dc, app = world.dc, world.app
        attach(world, FaultPlan().crash_machine(SOURCE, msg_type="la_hello"))
        with pytest.raises(ReproError):
            app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        detach(world)

        reinstall_migration_enclave(dc, dc.machine(SOURCE), world.me_signer)
        result = app.resume(migrate_vm=False)
        assert result.outcome is MigrationOutcome.RESUMED
        assert result.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []


class TestDestinationCrashResume:
    def test_destination_crash_before_transfer_lands(self):
        """The destination machine dies while the ME-to-ME transfer is in
        flight: the source parks the data, retries exhaust, and resume
        re-ships once the destination ME is back."""
        world = build_world(seed=103)
        dc, app = world.dc, world.app
        attach(
            world,
            FaultPlan().crash_machine(DESTINATION, msg_type="ra_rec", nth=1),
        )
        result = app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        assert result.outcome is MigrationOutcome.PENDING_RETRY
        assert not result
        assert isinstance(result.error, ReproError)
        detach(world)

        reinstall_migration_enclave(dc, dc.machine(DESTINATION), world.me_signer)
        resumed = app.resume(migrate_vm=False)
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []

    def test_destination_crash_after_install_before_confirm(self):
        """The destination enclave installed and persisted the state, then
        the machine dies before confirmation: resume restores from the local
        blob and (idempotently) re-confirms."""
        world = build_world(seed=104)
        dc, app = world.dc, world.app
        # The done command is the second la_rec sent by the destination app.
        attach(
            world,
            FaultPlan().crash_machine(
                DESTINATION, src=DESTINATION, msg_type="la_rec", nth=1
            ),
        )
        with pytest.raises(ReproError):
            app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        detach(world)

        reinstall_migration_enclave(dc, dc.machine(DESTINATION), world.me_signer)
        resumed = app.resume(migrate_vm=False)
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []


class TestPendingRetry:
    def test_drop_with_no_retry_parks_and_journal_survives(self):
        """A single dropped message with retries disabled leaves the library
        frozen, the data parked at the source ME, and the journal intact —
        exactly the state resume() needs."""
        world = build_world(seed=105)
        dc, app = world.dc, world.app
        attach(world, FaultPlan().drop(msg_type="la_rec", direction="request"))
        result = app.migrate(
            dc.machine(DESTINATION), migrate_vm=False, retry_policy=NO_RETRY
        )
        assert result.outcome is MigrationOutcome.PENDING_RETRY
        detach(world)

        record = MigrationJournal(dc.machine(SOURCE).storage, app.app_name).read()
        assert record is not None
        assert record.phase == PHASE_PREPARE
        assert app.enclave.ecall("is_frozen")

        resumed = app.resume(migrate_vm=False)
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []

    def test_transient_drops_absorbed_by_retries(self):
        """With the default policy, a couple of dropped messages never
        surface to the caller: the migration completes with retries > 0
        somewhere along the protocol."""
        world = build_world(seed=106)
        dc, app = world.dc, world.app
        attach(world, FaultPlan().drop(msg_type="ra_msg1"))
        result = app.migrate(
            dc.machine(DESTINATION),
            migrate_vm=False,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=0.01),
        )
        detach(world)
        assert result.outcome is MigrationOutcome.COMPLETED
        assert result.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        assert check_invariants(world) == []

    def test_reply_with_a_mistyped_aad_is_retried(self):
        """The host rewrites the ``aad`` of the source ME's reply to the
        library's first ``la_rec`` into a string: the library's channel
        rejects the record as malformed, and the command is retried over a
        fresh channel instead of the ECALL failing with a ``TypeError``."""

        def mistype_aad(src, dst, payload, direction):
            envelope = wire.decode(payload)
            record = wire.decode(envelope["payload"])
            record["aad"] = "x"
            envelope["payload"] = wire.encode(record)
            return wire.encode(envelope)

        world = build_world(seed=3, targets=(1,))
        dc, app = world.dc, world.app
        # The ME's replies to la_hello and la_msg1 come first.
        attach(
            world,
            FaultPlan().hook(
                mistype_aad, src=f"{SOURCE}/me", direction="response", nth=2
            ),
        )
        result = app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        detach(world)
        assert result.outcome is MigrationOutcome.COMPLETED
        assert result.retries_used == 1
        assert result.ecall("read_counter", world.counter_id) == 1
        assert check_invariants(world) == []


class TestRepeatedMigrate:
    """A repeated ``migrate()`` does what ``resume()`` does: it
    continues the journaled transaction, so a frozen enclave's state never
    ships under a second transaction id (which would leave the first record
    armed at the destination ME, §V-D)."""

    def test_every_dropped_leg_finishes_under_the_parked_transaction(self):
        legs = probe_message_sequence(2018)
        assert len(legs) == 24
        for leg in legs:
            world = build_world(2018)
            app, destination = world.app, world.dc.machine(DESTINATION)
            attach(world, FaultPlan().drop(nth=leg.seq, max_triggers=10_000))
            parked = app.migrate(destination, migrate_vm=False)
            detach(world)
            assert parked.outcome is MigrationOutcome.PENDING_RETRY, leg
            if app.app.machine.address == SOURCE:
                again = app.migrate(destination, migrate_vm=False)
            else:
                # The VM already moved: only resume() finishes the install.
                with pytest.raises(MigrationError, match=parked.txn_id):
                    app.migrate(destination, migrate_vm=False)
                again = app.resume(migrate_vm=False)
            assert again.outcome is MigrationOutcome.RESUMED, leg
            assert again.txn_id == parked.txn_id, leg
            assert check_invariants(world) == [], leg
            assert machines_with_incoming(world) == [], leg

    def test_other_destination_refused_until_resume_finishes(self):
        world = build_world(2018, machines=(SOURCE, DESTINATION, "machine-c"))
        app, dc = world.app, world.dc
        attach(world, FaultPlan().drop(msg_type="ra_msg1", max_triggers=10_000))
        parked = app.migrate(dc.machine(DESTINATION), migrate_vm=False)
        detach(world)
        assert parked.outcome is MigrationOutcome.PENDING_RETRY

        with pytest.raises(MigrationError, match=f"{parked.txn_id} to {DESTINATION}"):
            app.migrate(dc.machine("machine-c"), migrate_vm=False)
        assert app.enclave.ecall("is_frozen")

        resumed = app.resume(migrate_vm=False)
        assert resumed.outcome is MigrationOutcome.RESUMED
        assert resumed.txn_id == parked.txn_id
        assert app.app.machine.address == DESTINATION
        assert check_invariants(world) == []
        assert machines_with_incoming(world) == []


class TestResumeApi:
    def test_resume_without_journal_raises(self):
        world = build_world(seed=107)
        with pytest.raises(MigrationError, match="no migration in progress"):
            world.app.resume()

    def test_result_is_typed_and_delegates(self):
        world = build_world(seed=108)
        result = world.app.migrate(world.dc.machine(DESTINATION), migrate_vm=False)
        assert isinstance(result, MigrationResult)
        assert result  # truthy on success
        assert result.outcome is MigrationOutcome.COMPLETED
        assert result.txn_id.startswith("app-txn-")
        assert result.retries_used == 0
        assert result.cost is not None and result.cost.virtual_time > 0.0
        assert result.cost.messages_sent > 0
        # back-compat: attribute access falls through to the enclave
        assert result.alive
        assert result.ecall("read_counter", world.counter_id) == COUNTER_TARGET
        with pytest.raises(AttributeError):
            result._private_attr
