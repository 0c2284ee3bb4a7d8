"""Fleet control plane over a live data center: plan, apply, crash, resume.

The chaos sweep (``python -m repro.faults.chaos --fleet``) exhausts every
planner-kill boundary; these tests pin the core service semantics the sweep
builds on, plus the seeded demo drain plan (golden file) and the pre-flight
rejections.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.core.policy import AllowedDestinationsPolicy, PolicySet
from repro.core.result import MigrationOutcome
from repro.errors import MigrationError, PreflightError
from repro.fleet import FleetConstraints, FleetService
from repro.fleet.model import PlannedMove, Wave
from repro.fleet.demo import build_demo_fleet, counter_values

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"


def small_fleet():
    """8 enclaves over 4 machines: every shape, a fraction of the build."""
    return build_demo_fleet(seed=0, n_enclaves=8)


class _Killed(Exception):
    pass


def _kill_at(stage, index):
    def hook(s, i):
        if (s, i) == (stage, index):
            raise _Killed(f"{s}:{i}")

    return hook


def _restarted_planner(service):
    """A fresh FleetService over the same world — nothing carried over from
    the dead planner process but the durable fleet journal."""
    return dataclasses.replace(service, members=dict(service.members))


class TestApply:
    def test_drain_end_to_end_preserves_state_and_placement(self):
        demo = small_fleet()
        before = counter_values(demo)
        plan = demo.service.plan_drain("fleet-0")
        result = demo.service.apply(plan)
        assert result.completed
        assert not result.resumed
        for move in plan.moves:
            outcome = result.result_for(move.app_name)
            assert outcome.outcome is MigrationOutcome.COMPLETED
            assert demo.service.members[move.app_name].machine == move.destination
        assert counter_values(demo) == before
        assert demo.service.placements()["fleet-0"] == []
        assert demo.service.journal().read() is None

    def test_empty_plan_applies_to_empty_result(self):
        demo = small_fleet()
        # fleet-3 hosts apps 3 and 7; drain it first so a second drain of
        # the now-empty machine yields an empty plan.
        demo.service.apply(demo.service.plan_drain("fleet-3"))
        plan = demo.service.plan_drain("fleet-3")
        assert plan.waves == ()
        result = demo.service.apply(plan)
        assert result.completed and result.waves == []
        assert demo.service.journal().read() is None

    def test_wave_boundaries_are_journaled_in_order(self):
        demo = small_fleet()
        demo.service.constraints = FleetConstraints(
            machine_capacity=8, max_moves_per_machine=1
        )
        plan = demo.service.plan_drain("fleet-0")
        assert len(plan.waves) == 2
        seen = []
        demo.service.apply(plan, boundary_hook=lambda s, i: seen.append((s, i)))
        # Each wave of this plan is a single (wave, destination) group, so
        # exactly one ``group`` boundary fires between started and
        # dispatched.
        assert seen == [
            ("planned", -1),
            ("started", 0), ("group", 0), ("dispatched", 0), ("done", 0),
            ("started", 1), ("group", 1), ("dispatched", 1), ("done", 1),
            ("complete", -1),
        ]


class TestCrashResume:
    def test_resume_without_a_plan_raises(self):
        demo = small_fleet()
        with pytest.raises(MigrationError, match="no fleet plan in progress"):
            demo.service.resume_plan()

    def test_crash_mid_wave_reconciles_and_finishes(self):
        demo = small_fleet()
        demo.service.constraints = FleetConstraints(
            machine_capacity=8, max_moves_per_machine=1
        )
        before = counter_values(demo)
        plan = demo.service.plan_drain("fleet-0")
        with pytest.raises(_Killed):
            # Wave 0 fully dispatched but never marked done: the restarted
            # planner must reconcile it (members already migrated) rather
            # than re-dispatch.
            demo.service.apply(plan, boundary_hook=_kill_at("dispatched", 0))
        restarted = _restarted_planner(demo.service)
        result = restarted.resume_plan()
        assert result.resumed and result.completed
        assert result.skipped_waves == 0
        reconciled = result.waves[0]
        assert all(
            r.diagnostics.get("reconciled") for r in reconciled.results.values()
        )
        assert counter_values(demo) == before
        assert restarted.placements()["fleet-0"] == []
        assert restarted.journal().read() is None

    def test_crash_between_waves_skips_the_done_wave(self):
        demo = small_fleet()
        demo.service.constraints = FleetConstraints(
            machine_capacity=8, max_moves_per_machine=1
        )
        plan = demo.service.plan_drain("fleet-0")
        with pytest.raises(_Killed):
            demo.service.apply(plan, boundary_hook=_kill_at("done", 0))
        restarted = _restarted_planner(demo.service)
        result = restarted.resume_plan()
        assert result.resumed and result.completed
        assert result.skipped_waves == 1
        assert len(result.waves) == 1
        assert restarted.placements()["fleet-0"] == []

    def test_corrupted_fleet_journal_reads_as_no_plan(self):
        demo = small_fleet()
        plan = demo.service.plan_drain("fleet-0")
        with pytest.raises(_Killed):
            demo.service.apply(plan, boundary_hook=_kill_at("started", 0))
        journal = demo.service.journal()
        journal.storage.write(journal.path, b"rotted garbage")
        journal.storage.sync(journal.path)
        corruptions = journal.storage.journal_corruption_count
        restarted = _restarted_planner(demo.service)
        # A rotted plan journal stalls fleet resumption (typed, counted) —
        # it must never crash the planner or touch the members.
        with pytest.raises(MigrationError, match="no fleet plan in progress"):
            restarted.resume_plan()
        assert journal.storage.journal_corruption_count == corruptions + 1


class TestPreflight:
    def test_capacity_overflow_rejected_before_any_freeze(self):
        demo = small_fleet()
        before = counter_values(demo)
        plan = demo.service.plan_drain("fleet-0")
        # Constraints tightened between planning and apply: the stale plan
        # must be rejected up front, with every member still serving.
        demo.service.constraints = FleetConstraints(
            machine_capacity=2, capacity_headroom=0
        )
        with pytest.raises(PreflightError, match="over effective capacity"):
            demo.service.apply(plan)
        assert counter_values(demo) == before
        assert demo.service.placements()["fleet-0"] != []

    def test_policy_rejection_is_preflighted(self):
        demo = small_fleet()
        demo.service.policies = PolicySet(
            [AllowedDestinationsPolicy(allowed=frozenset({"fleet-0"}))]
        )
        plan = demo.service.plan_drain("fleet-0")
        with pytest.raises(PreflightError, match="policy rejects"):
            demo.service.apply(plan)

    def test_unknown_member_rejected(self):
        demo = small_fleet()
        wave = Wave(
            index=0,
            moves=(
                PlannedMove(
                    app_name="ghost", source="fleet-0", destination="fleet-1"
                ),
            ),
        )
        from repro.fleet.preflight import run_preflight

        with pytest.raises(PreflightError, match="not a fleet member"):
            run_preflight(demo.service, wave)

    def test_stale_source_rejected(self):
        demo = small_fleet()
        plan = demo.service.plan_drain("fleet-0")
        # The fleet moved on (another drain) after the plan was cut.
        demo.service.apply(plan)
        with pytest.raises(PreflightError, match="plan expected"):
            demo.service.apply(plan)

    def test_mid_transaction_member_rejected(self):
        demo = small_fleet()
        plan = demo.service.plan_drain("fleet-0")
        first = plan.moves[0]
        app = demo.service.members[first.app_name].app
        # Fake an in-flight migration: the member's own journal is occupied
        # by a well-formed record (garbage would read as corrupted == none).
        from repro.cloud.storage import MigrationJournal, MigrationRecord

        source_journal = MigrationJournal(app.app.machine.storage, app.app_name)
        source_journal.write(
            MigrationRecord(
                txn_id=f"{app.app_name}-txn-999",
                role="source",
                phase="PREPARE",
                source=first.source,
                destination=first.destination,
                retries=0,
            )
        )
        with pytest.raises(PreflightError, match="migration in progress"):
            demo.service.apply(plan)


class TestGoldenPlan:
    def test_seeded_demo_drain_plan_matches_golden_file(self):
        """The planner's output on the seeded demo world is part of the
        contract: placement or packing drift must be a conscious commit
        (regenerate with ``python -m repro fleet plan > ...``)."""
        golden = json.loads((GOLDEN_DIR / "fleet_plan_seed0.json").read_text())
        demo = build_demo_fleet(seed=0)
        plan = demo.service.plan_drain("fleet-0")
        assert plan.to_dict() == golden

    def test_heap_fast_path_matches_scan_oracle_on_golden_plan(self):
        """The heap-based placement (the default) and the retired linear
        scan must both reproduce the golden plan — placement is
        byte-identical across the fast-path swap."""
        from repro.fleet.planner import plan_drain

        golden = json.loads((GOLDEN_DIR / "fleet_plan_seed0.json").read_text())
        demo = build_demo_fleet(seed=0)
        members = list(demo.service.members.values())
        machines = demo.service.machine_names()
        constraints = demo.service.constraints
        heap_plan = plan_drain(members, machines, "fleet-0", constraints)
        scan_plan = plan_drain(
            members, machines, "fleet-0", constraints, fast=False
        )
        assert heap_plan.to_dict() == golden
        assert scan_plan.to_dict() == golden


#: Every (dispatch mode, case) row of ``fleet_dispatch_seed0.json``.  The
#: pipelined resume rows are absent on purpose: a resumed pipelined plan
#: replays its groups on one gated scheduler, so its virtual time is its
#: own, not serial's.
DISPATCH_CASES = [
    (mode, case)
    for case in ("drain", "evacuate", "window-drain")
    for mode in ("serial", "pipelined")
] + [("serial", "resume@group:0"), ("serial", "resume@started:0")]


def _dispatch_case(mode: str, case: str) -> dict:
    """Run one dispatch case on the 8-enclave demo fleet and record what
    the executor produced: clock delta (as ``repr``, so every bit counts),
    wire odometers, placements, and per plan the per-member outcome and
    ``cost.virtual_time`` plus the scheduler's utilization summary."""
    demo = build_demo_fleet(seed=0, n_enclaves=8, dispatch=mode)
    service, network = demo.service, demo.dc.network
    clock, messages, sent = demo.dc.clock.now, network.messages_sent, network.bytes_sent
    if case == "drain":
        results = [service.apply(service.plan_drain("fleet-0"))]
    elif case == "evacuate":
        service.constraints = dataclasses.replace(
            service.constraints, max_moves_per_machine=1, tenant_wave_quota=1
        )
        plan = service.plan_evacuate("tenant-a")
        assert len(plan.waves) == 4
        results = [service.apply(plan)]
    elif case == "window-drain":
        window = frozenset({"fleet-0", "fleet-1"})
        results = service.apply_many([
            (lambda m=machine: service.plan_drain(m, exclude=window))
            for machine in sorted(window)
        ])
    else:
        stage, _, wave = case.partition("@")[2].partition(":")
        with pytest.raises(_Killed):
            service.apply(
                service.plan_drain("fleet-0"), boundary_hook=_kill_at(stage, int(wave))
            )
        results = [_restarted_planner(service).resume_plan()]
    return {
        "clock_delta": repr(demo.dc.clock.now - clock),
        "messages": network.messages_sent - messages,
        "bytes": network.bytes_sent - sent,
        "placements": service.placements(),
        "plans": [
            {
                "members": {
                    name: [
                        result.outcome.value,
                        result.cost.virtual_time if result.cost else None,
                    ]
                    for wave in plan_result.waves
                    for name, result in sorted(wave.results.items())
                },
                "utilization": (
                    plan_result.utilization["summary"]
                    if plan_result.utilization else None
                ),
            }
            for plan_result in results
        ],
    }


class TestDispatchGolden:
    @pytest.mark.parametrize("mode,case", DISPATCH_CASES)
    def test_dispatch_matches_golden_file(self, mode, case):
        """Serial and pipelined dispatch of every entry point (``apply``,
        ``apply_many``, ``resume_plan``) are pinned bit for bit: virtual
        time, wire bytes, placements, per-member outcomes and costs, and
        the pipelined schedule's utilization summary (regenerate with
        ``PYTHONPATH=src python -m tests.integration.test_fleet_service``)."""
        golden = json.loads((GOLDEN_DIR / "fleet_dispatch_seed0.json").read_text())
        actual = json.loads(json.dumps(_dispatch_case(mode, case)))
        assert actual == golden[f"{mode}/{case}"]


def regenerate_dispatch_golden() -> None:  # pragma: no cover - maintenance helper
    golden = {f"{mode}/{case}": _dispatch_case(mode, case) for mode, case in DISPATCH_CASES}
    (GOLDEN_DIR / "fleet_dispatch_seed0.json").write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":  # pragma: no cover
    regenerate_dispatch_golden()
