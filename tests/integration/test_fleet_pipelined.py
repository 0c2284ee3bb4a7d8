"""Plan-wide pipelined dispatch: no wave barrier, claim-gated admission.

Pins the contracts of ``FleetService(dispatch="pipelined")``:

* **Serial equivalence** — record-then-replay keeps the protocol bytes,
  final placements, enclave state, and per-member outcomes identical to
  serial dispatch for every intent; only contended virtual time differs.
* **Barrier removal** — on a shape with cross-wave independence (the
  multi-round maintenance-window drain via ``apply_many``), pipelined
  finishes in strictly less virtual time than serial dispatch.
* **Crash-path replay** — a planner killed mid-dispatch still spends the
  virtual time its recorded groups took, exactly as serial dispatch does.
* **Group-granular resume** — the v2 journal's ``done_groups`` lets a
  restarted planner skip completed (wave, destination) groups wholesale.
* **Multi-tenant journaling** — ``apply_many`` keeps one journal per
  plan plus an index, so each tenant's plan crash/resumes independently
  via ``resume_many``.
* **Determinism** — same seed, same admission schedule; one gated event
  trace is golden-pinned so schedule drift is a conscious commit.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import wire
from repro.core.result import MigrationOutcome
from repro.core.retry import NO_RETRY
from repro.errors import MigrationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fleet.demo import build_demo_fleet, counter_values
from repro.fleet.journal import (
    FleetPlanIndex,
    FleetPlanJournal,
    FleetPlanRecord,
    group_key,
)
from repro.fleet.service import _PlanRun

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_TRACE = GOLDEN_DIR / "fleet_pipelined_trace_seed0.json"

#: Two-machine maintenance window: each round drains one window machine
#: and may not refill the other, so the rounds' resource claims are
#: mostly disjoint — the shape pipelining exists for.
WINDOW = frozenset({"fleet-0", "fleet-1"})


class _Killed(Exception):
    pass


def _window_drain(demo):
    """Two drain rounds as plan factories (round 1 depends on round 0's
    placements), executed under one ``apply_many``."""
    factories = [
        (lambda m=machine: demo.service.plan_drain(m, exclude=WINDOW))
        for machine in sorted(WINDOW)
    ]
    return demo.service.apply_many(factories)


def _pipelined_trace() -> list[dict]:
    """The scheduler's event log of the seeded maintenance-window drain."""
    demo = build_demo_fleet(seed=0, dispatch="pipelined")
    _window_drain(demo)
    return demo.service.last_schedule.event_log


def _snapshot(demo):
    return (
        demo.service.placements(),
        counter_values(demo),
        demo.dc.network.messages_sent,
        demo.dc.network.bytes_sent,
    )


class TestSerialEquivalence:
    @pytest.mark.parametrize(
        "intent", ["drain", "evacuate", "rebalance", "delayed-drain"]
    )
    def test_pipelined_matches_serial_state_bytes_and_outcomes(self, intent):
        worlds, results, costs, elapsed = {}, {}, {}, {}
        for mode in ("serial", "pipelined"):
            demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch=mode)
            base = demo.dc.clock.now
            if intent == "evacuate":
                plan = demo.service.plan_evacuate("tenant-a")
            elif intent == "rebalance":
                # Drain first so the rebalance actually has work to do.
                demo.service.apply(demo.service.plan_drain("fleet-0"))
                plan = demo.service.plan_rebalance()
            else:
                plan = demo.service.plan_drain("fleet-0")
            if intent == "delayed-drain":
                # One exchange outlives ME_REQUEST_TIMEOUT (30 s): the sender
                # must time out and retry while the group records, too, even
                # though the clock stands still until replay.
                demo.dc.network.fault_injector = FaultInjector(
                    plan=FaultPlan().delay(31.0, msg_type="ra_msg1"),
                    rng=demo.dc.rng.child("delayed-drain"),
                    machines=dict(demo.dc.machines),
                    meter=demo.dc.meter,
                )
            assert plan.moves, f"empty {intent} plan defeats the test"
            result = demo.service.apply(plan)
            demo.dc.network.fault_injector = None
            assert result.completed
            worlds[mode] = _snapshot(demo)
            results[mode] = {
                move.app_name: result.result_for(move.app_name).outcome
                for move in plan.moves
            }
            costs[mode] = {
                move.app_name: result.result_for(move.app_name).cost
                for move in plan.moves
            }
            elapsed[mode] = demo.dc.clock.now - base
        # Same placements, same enclave state, same wire odometers, same
        # per-member outcomes: the scheduler replays recorded traces, it
        # never re-runs the protocol.
        assert worlds["serial"] == worlds["pipelined"]
        assert results["serial"] == results["pipelined"]
        # Per-member costs read the protocol's view of virtual time, so the
        # frozen clock of the record phase does not zero them.
        for name, serial in costs["serial"].items():
            pipelined = costs["pipelined"][name]
            assert serial.virtual_time > 0
            assert pipelined.virtual_time == pytest.approx(serial.virtual_time)
            assert pipelined.messages_sent == serial.messages_sent
            assert pipelined.bytes_sent == serial.bytes_sent
        # Only virtual time may differ — never against pipelined.
        assert elapsed["pipelined"] <= elapsed["serial"]

    def test_every_member_lands_and_journal_is_clean(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
        before = counter_values(demo)
        plan = demo.service.plan_drain("fleet-0")
        result = demo.service.apply(plan)
        assert result.completed
        for move in plan.moves:
            assert result.result_for(move.app_name).outcome is (
                MigrationOutcome.COMPLETED
            )
            assert demo.service.members[move.app_name].machine == move.destination
        assert counter_values(demo) == before
        assert demo.service.placements()["fleet-0"] == []
        assert demo.service.journal().read() is None

    def test_plan_result_carries_the_utilization_report(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
        result = demo.service.apply(demo.service.plan_drain("fleet-0"))
        report = result.utilization
        assert report is not None
        assert report["summary"]["makespan"] > 0
        assert report["summary"]["machines"] == len(report["cpu"])
        for stats in report["cpu"].values():
            assert 0.0 <= stats["busy_fraction"] <= 1.0


class TestBarrierRemoval:
    def test_window_drain_pipelined_beats_serial(self):
        state, clocks = {}, {}
        for mode in ("serial", "pipelined"):
            demo = build_demo_fleet(seed=0, dispatch=mode)
            base = demo.dc.clock.now
            results = _window_drain(demo)
            assert all(r.completed for r in results)
            state[mode] = _snapshot(demo)
            clocks[mode] = demo.dc.clock.now - base
        # Identical work in both modes...
        assert state["serial"] == state["pipelined"]
        # ...but pipelined admission overlaps the two rounds across the
        # wave barrier.
        assert clocks["pipelined"] < clocks["serial"]

    def test_gating_actually_happens(self):
        demo = build_demo_fleet(seed=0, dispatch="pipelined")
        _window_drain(demo)
        log = demo.service.last_schedule.event_log
        kinds = {entry["event"] for entry in log}
        # At least one group waited on a claim conflict (gated spawn +
        # admit), and at least one was admitted immediately (plain spawn).
        assert "admit" in kinds
        gated = [e for e in log if e["event"] == "spawn" and "waiting_on" in e]
        ungated = [e for e in log if e["event"] == "spawn" and "waiting_on" not in e]
        assert gated and ungated


class TestCrashPathReplay:
    def test_killed_planner_keeps_the_recorded_virtual_time(self):
        """A planner killed at the first ``group`` boundary has already
        moved that group's member and sent its messages.  Pipelined
        dispatch must spend that group's virtual time the way serial
        dispatch does, not drop it along with the dead planner."""

        def kill_at_first_group(stage, index):
            if stage == "group":
                raise _Killed()

        elapsed, sent = {}, {}
        for mode in ("serial", "pipelined"):
            demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch=mode)
            base, messages = demo.dc.clock.now, demo.dc.network.messages_sent
            with pytest.raises(_Killed):
                demo.service.apply(
                    demo.service.plan_drain("fleet-0"),
                    boundary_hook=kill_at_first_group,
                )
            elapsed[mode] = demo.dc.clock.now - base
            sent[mode] = demo.dc.network.messages_sent - messages
        assert sent["pipelined"] == sent["serial"] > 0
        assert elapsed["serial"] > 0
        assert elapsed["pipelined"] == pytest.approx(elapsed["serial"])


class TestDeterminismAndGolden:
    def test_same_seed_reproduces_the_exact_admission_schedule(self):
        logs, finals = [], []
        for _ in range(2):
            demo = build_demo_fleet(seed=0, dispatch="pipelined")
            _window_drain(demo)
            logs.append(demo.service.last_schedule.event_log)
            finals.append(demo.dc.clock.now)
        assert logs[0] == logs[1]
        assert finals[0] == finals[1]

    def test_determinism_holds_under_fault_drops_and_delays(self):
        logs, finals = [], []
        for _ in range(2):
            demo = build_demo_fleet(seed=0, dispatch="pipelined")
            demo.dc.network.fault_injector = FaultInjector(
                plan=(
                    FaultPlan()
                    .drop(max_triggers=2, msg_type="la_hello")
                    .delay(0.25, max_triggers=3)
                ),
                rng=demo.dc.rng.child("pipelined-faults"),
                machines=dict(demo.dc.machines),
                meter=demo.dc.meter,
            )
            try:
                results = _window_drain(demo)
            finally:
                demo.dc.network.fault_injector = None
            assert all(result.completed for result in results)
            logs.append(demo.service.last_schedule.event_log)
            finals.append(demo.dc.clock.now)
        assert logs[0] == logs[1]
        assert finals[0] == finals[1]

    def test_pipelined_event_trace_matches_golden_file(self):
        """The gated schedule of the seeded maintenance-window drain is
        part of the contract: any drift in admission order or timing must
        be a conscious commit (regenerate with
        ``PYTHONPATH=src python -m tests.integration.test_fleet_pipelined``)."""
        golden = json.loads(GOLDEN_TRACE.read_text())
        assert json.loads(json.dumps(_pipelined_trace())) == golden


class TestGroupGranularResume:
    def test_crash_after_first_group_skips_it_on_resume(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        before = counter_values(demo)
        plan = demo.service.plan_drain("fleet-0")
        groups = {move.destination for move in plan.waves[0].moves}
        assert len(groups) > 1, "need a multi-group wave to skip one group"

        fired = []

        def kill_after_first_group(stage, index):
            if stage == "group":
                fired.append(index)
                raise _Killed()

        with pytest.raises(_Killed):
            demo.service.apply(plan, boundary_hook=kill_after_first_group)
        assert fired == [0]
        record = demo.service.journal().read()
        assert len(record.done_groups) == 1

        restarted = dataclasses.replace(
            demo.service, members=dict(demo.service.members)
        )
        result = restarted.resume_plan()
        assert result.resumed and result.completed
        # Exactly the journaled group was skipped wholesale; its members
        # report already-complete without any member-journal probing.
        assert result.skipped_groups == 1
        assert counter_values(demo) == before
        assert restarted.placements()["fleet-0"] == []
        assert restarted.journal().read() is None

    def test_partial_redispatch_never_journals_a_mixed_group_done(self):
        """Regression: a (wave, destination) group whose members split into
        parked (own migration journal on disk) and never-started must not
        be journaled done just because the re-dispatched fresh subset
        completed.  The parked member's reconcile lands as ``RESUMED``,
        not ``COMPLETED`` — were the group marked done off the fresh
        subset alone, a second planner crash before ``mark_wave_done``
        would skip the group wholesale and report a member complete that
        the journal never proved so."""
        demo = build_demo_fleet(seed=0)
        service = demo.service
        plan = service.plan_drain("fleet-0")
        wave = plan.waves[0]
        groups = service._wave_groups(wave)
        destination, moves = next(
            (d, m) for d, m in groups if len(m) >= 2
        )
        journal = service.journal()
        journal.write_plan(plan)
        journal.mark_wave_started(0)

        # Park the group's first member mid-transaction: migrate journals
        # the transaction and freezes, then the dropped la_rec exhausts
        # the single attempt — PENDING_RETRY, member journal on disk.
        # The group's other member is never started at all.
        parked = moves[0].app_name
        app = service.members[parked].app
        demo.dc.network.fault_injector = FaultInjector(
            plan=FaultPlan().drop(msg_type="la_rec", direction="request"),
            rng=demo.dc.rng.child("mixed-group"),
            machines=dict(demo.dc.machines),
            meter=demo.dc.meter,
        )
        result = app.migrate(
            demo.dc.machine(destination),
            migrate_vm=False,
            retry_policy=NO_RETRY,
        )
        assert result.outcome is MigrationOutcome.PENDING_RETRY
        demo.dc.network.fault_injector = None

        results, skipped = service._reconcile_wave(_PlanRun(journal), wave)
        assert skipped == 0
        assert results[parked].outcome is MigrationOutcome.RESUMED
        record = journal.read()
        # Groups whose original membership all reported COMPLETED are
        # journaled done; the mixed group is not, so a repeated crash
        # re-reconciles it instead of fabricating completion.
        assert group_key(0, destination) not in record.done_groups
        for other, other_moves in groups:
            if other == destination:
                continue
            assert all(
                results[move.app_name].outcome is MigrationOutcome.COMPLETED
                for move in other_moves
            )
            assert group_key(0, other) in record.done_groups
        # The fleet state itself is fully reconciled either way.
        assert all(
            service.members[move.app_name].machine == move.destination
            for move in wave.moves
        )
        journal.clear()

    def test_journal_v2_round_trips_and_prunes_done_groups(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        journal = demo.service.journal()
        plan = demo.service.plan_drain("fleet-0")
        journal.write_plan(plan)
        journal.mark_wave_started(0)
        journal.mark_group_done(0, "fleet-1")
        journal.mark_group_done(0, "fleet-1")  # idempotent
        journal.mark_group_done(0, "fleet-2")
        record = journal.read()
        assert record.done_groups == (
            group_key(0, "fleet-1"), group_key(0, "fleet-2"),
        )
        journal.mark_wave_done(0)
        record = journal.read()
        # The cursor advanced and the group list was pruned with it.
        assert record.next_wave == 1 and record.done_groups == ()
        journal.clear()

    def test_each_mark_reads_the_plan_once(self, monkeypatch):
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        journal = demo.service.journal()
        storage = journal.storage
        reads = []
        read_record = storage.read_record

        def counted(path, parse):
            reads.append(path)
            return read_record(path, parse)

        monkeypatch.setattr(storage, "read_record", counted)
        steps = [
            lambda: journal.write_plan(demo.service.plan_drain("fleet-0")),
            lambda: journal.mark_wave_started(0),
            lambda: journal.mark_group_done(0, "fleet-1"),
            lambda: journal.mark_wave_done(0),
        ]
        for generation, step in enumerate(steps, start=1):
            reads.clear()
            step()
            assert reads == [journal.path]
            # One generation per write (read back outside the count).
            assert read_record(journal.path, FleetPlanRecord.from_bytes).generation == generation
        journal.clear()

    def test_v1_records_decode_with_no_done_groups(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        journal = demo.service.journal()
        journal.write_plan(demo.service.plan_drain("fleet-0"))
        fields = wire.decode(journal.storage.read(journal.path))
        del fields["done_groups"]
        fields["v"] = 1
        journal.storage.write(journal.path, wire.encode(fields))
        journal.storage.sync(journal.path)
        record = journal.read()
        # Pre-``done_groups`` records resume with full-wave reconciliation
        # (slower, equally safe) instead of crashing the planner.
        assert record is not None and record.done_groups == ()
        journal.clear()

    @pytest.mark.parametrize(
        "mistype",
        [
            lambda fields: {**fields, "next_wave": "0"},
            lambda fields: {**fields, "waves": [5]},
            lambda fields: {**fields, "waves": [[
                wire.encode({**wire.decode(fields["waves"][0][0]), "app": 5})
            ]]},
        ],
        ids=["str-cursor", "int-wave", "int-app"],
    )
    def test_mistyped_field_reads_as_no_plan(self, mistype):
        """A started wave whose journal holds a field of another type, in
        the cursor or in a planned move, is corrupt: counted, read as no
        plan, and resuming it raises ``MigrationError`` like resuming
        nothing."""
        demo = build_demo_fleet(seed=0, n_enclaves=8)
        journal = demo.service.journal()
        journal.write_plan(demo.service.plan_drain("fleet-0"))
        journal.mark_wave_started(0)
        fields = wire.decode(journal.storage.read(journal.path))
        journal.storage.write(journal.path, wire.encode(mistype(fields)))
        journal.storage.sync(journal.path)
        before = journal.storage.journal_corruption_count
        assert journal.read() is None
        assert journal.storage.journal_corruption_count == before + 1
        with pytest.raises(MigrationError):
            demo.service.resume_plan()
        journal.clear()


class TestMultiTenantResume:
    def _evacuations(self, demo):
        return [
            (lambda t=tenant: demo.service.plan_evacuate(t))
            for tenant in ("tenant-a", "tenant-b")
        ]

    def test_resume_many_without_an_index_raises(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
        with pytest.raises(MigrationError, match="no multi-plan dispatch"):
            demo.service.resume_many()
        # An index whose labels are not a list is corrupt: counted, and read
        # as no index.
        storage = demo.service._control_storage()
        storage.write(FleetPlanIndex(storage).path, wire.encode({"v": 1, "labels": 5}))
        before = storage.journal_corruption_count
        with pytest.raises(MigrationError, match="no multi-plan dispatch"):
            demo.service.resume_many()
        assert storage.journal_corruption_count == before + 1

    def test_crash_between_plans_resumes_only_the_unfinished_one(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
        before = counter_values(demo)
        planned = []

        def kill_at_second_plan(stage, index):
            if stage == "planned":
                planned.append(stage)
                if len(planned) == 2:
                    raise _Killed()

        with pytest.raises(_Killed):
            demo.service.apply_many(
                self._evacuations(demo), boundary_hook=kill_at_second_plan
            )
        storage = demo.service._control_storage()
        assert FleetPlanIndex(storage).read() == ["plan-0", "plan-1"]
        # plan-0 finished (journal cleared) before the crash; plan-1 is
        # journaled but untouched.
        assert FleetPlanJournal(storage, owner="plan-0").read() is None
        assert FleetPlanJournal(storage, owner="plan-1").read() is not None

        restarted = dataclasses.replace(
            demo.service, members=dict(demo.service.members)
        )
        results = restarted.resume_many()
        assert len(results) == 1
        assert results[0].resumed and results[0].completed
        assert counter_values(demo) == before
        assert FleetPlanIndex(storage).read() == []
        with pytest.raises(MigrationError, match="no multi-plan dispatch"):
            restarted.resume_many()

    def test_apply_many_serial_and_pipelined_agree(self):
        state = {}
        for mode in ("serial", "pipelined"):
            demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch=mode)
            results = demo.service.apply_many(self._evacuations(demo))
            assert len(results) == 2 and all(r.completed for r in results)
            state[mode] = _snapshot(demo)
        assert state["serial"] == state["pipelined"]

    def test_apply_many_outcomes_get_independent_utilization_reports(self):
        demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch="pipelined")
        first, second = demo.service.apply_many(self._evacuations(demo))
        # Same shared schedule, but each tenant owns its copy: mutating
        # one plan's report must not leak into the other's.
        assert first.utilization == second.utilization
        assert first.utilization is not second.utilization
        first.utilization["summary"]["makespan"] = -1.0
        assert second.utilization["summary"]["makespan"] != -1.0


class TestBenchConfigGuards:
    def test_multi_plan_drain_requires_reps_below_machines(self):
        from repro.bench.harness import FleetBenchConfig

        # reps >= n_machines puts every machine in the maintenance window,
        # leaving plan_drain no destination at all.
        with pytest.raises(ValueError, match="reps < n_machines"):
            FleetBenchConfig(
                n_enclaves=8, n_machines=4, reps=4, plan="drain",
                orchestrated=True, dispatch="pipelined", multi_plan=True,
            )
        FleetBenchConfig(
            n_enclaves=8, n_machines=4, reps=3, plan="drain",
            orchestrated=True, dispatch="pipelined", multi_plan=True,
        )


class TestLinkOverlap:
    def test_overlapping_transfers_keep_their_fixed_latency(self):
        """A 6-machine tenant evacuation under wave caps 4 sends two protocol
        transfers between one pair of machines at once; each replays as its
        own latency, so neither slows the other."""
        from repro.bench.harness import FleetBenchConfig, run_fleet_bench

        row = run_fleet_bench(
            FleetBenchConfig(
                n_machines=6, n_enclaves=24, plan="evacuate", reps=1,
                wave_caps=4, orchestrated=True, dispatch="pipelined",
            )
        )
        assert row["virtual_seconds_total"] == 0.9422963512520315


def regenerate_trace_golden() -> None:  # pragma: no cover - maintenance helper
    GOLDEN_TRACE.write_text(json.dumps(_pipelined_trace(), indent=1) + "\n")


if __name__ == "__main__":  # pragma: no cover
    regenerate_trace_golden()
