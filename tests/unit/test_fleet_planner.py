"""Planner unit tests: placement, wave packing, and typed infeasibility.

The planner runs against plain data (no data center, no enclaves): a
lightweight stand-in app object is enough to make a :class:`FleetMember`,
which keeps every edge case here O(microseconds).
"""

import pytest

from repro.errors import PlanInfeasibleError, ReproError
from repro.fleet import (
    FleetConstraints,
    FleetMember,
    pack_waves,
    plan_drain,
    plan_evacuate,
    plan_rebalance,
)
from repro.fleet.model import PlannedMove
from repro.fleet.planner import build_conflict_graph, group_claims


class _StubMachine:
    def __init__(self, address):
        self.address = address


class _StubVm:
    def __init__(self, address):
        self.machine = _StubMachine(address)


class _StubApp:
    """Quacks like MigratableApp for plan-time purposes only."""

    def __init__(self, name, machine):
        self.app_name = name
        self.app = _StubVm(machine)


def member(name, machine, tenant="default", group=None):
    return FleetMember(
        app=_StubApp(name, machine), tenant=tenant, anti_affinity_group=group
    )


MACHINES = ["m-0", "m-1", "m-2", "m-3"]


class TestPlanDrain:
    def test_drain_spreads_members_to_least_loaded(self):
        members = [
            member("a", "m-0"),
            member("b", "m-0"),
            member("c", "m-1"),
        ]
        plan = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        destinations = {m.app_name: m.destination for m in plan.moves}
        # m-1 already holds c, so both movers prefer the empty machines.
        assert set(destinations) == {"a", "b"}
        assert "m-0" not in destinations.values()
        assert sorted(destinations.values()) == ["m-2", "m-3"]

    def test_drain_of_machine_hosting_zero_enclaves_is_empty_plan(self):
        members = [member("a", "m-1")]
        plan = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        assert plan.intent == "drain:m-0"
        assert plan.waves == ()
        assert plan.moves == []

    def test_empty_fleet_plans_are_empty_not_errors(self):
        plan = plan_drain([], MACHINES, "m-0", FleetConstraints())
        assert plan.waves == ()
        rebalance = plan_rebalance([], MACHINES, FleetConstraints())
        assert rebalance.waves == ()

    def test_drain_never_targets_the_drained_machine(self):
        members = [member(f"a{i}", "m-0") for i in range(6)]
        plan = plan_drain(
            members, MACHINES, "m-0",
            FleetConstraints(max_moves_per_machine=2),
        )
        assert all(m.destination != "m-0" for m in plan.moves)
        assert len(plan.moves) == 6
        # Source cap of 2 forces the six moves into three waves.
        assert len(plan.waves) == 3

    def test_single_machine_drain_is_infeasible(self):
        members = [member("a", "m-0")]
        with pytest.raises(PlanInfeasibleError) as excinfo:
            plan_drain(members, ["m-0"], "m-0", FleetConstraints())
        assert "no feasible destination" in str(excinfo.value)


class TestQuotasAndCapacity:
    def test_tenant_plan_quota_exhaustion_mid_plan_is_typed(self):
        members = [
            member("a", "m-0", tenant="t"),
            member("b", "m-0", tenant="t"),
            member("c", "m-0", tenant="t"),
        ]
        constraints = FleetConstraints(tenant_plan_quota=2)
        with pytest.raises(PlanInfeasibleError) as excinfo:
            plan_drain(members, MACHINES, "m-0", constraints)
        message = str(excinfo.value)
        assert "quota (2) exhausted" in message
        assert "'c'" in message  # names the move that broke the plan

    def test_capacity_headroom_shrinks_effective_capacity(self):
        # Destinations each already hold one member; capacity 2 with
        # headroom 1 leaves no room anywhere.
        members = [
            member("a", "m-0"),
            member("b", "m-1"),
            member("c", "m-2"),
            member("d", "m-3"),
        ]
        constraints = FleetConstraints(machine_capacity=2, capacity_headroom=1)
        with pytest.raises(PlanInfeasibleError):
            plan_drain(members, MACHINES, "m-0", constraints)
        # Without headroom the same drain is satisfiable.
        plan = plan_drain(
            members, MACHINES, "m-0", FleetConstraints(machine_capacity=2)
        )
        assert len(plan.moves) == 1

    def test_infeasibility_is_a_repro_error(self):
        assert issubclass(PlanInfeasibleError, ReproError)


class TestAntiAffinity:
    def test_group_mates_never_share_a_destination(self):
        members = [
            member("a", "m-0", group="g"),
            member("b", "m-0", group="g"),
            member("c", "m-0", group="g"),
        ]
        plan = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        destinations = [m.destination for m in plan.moves]
        assert len(set(destinations)) == len(destinations)

    def test_group_avoids_machines_already_hosting_a_mate(self):
        members = [
            member("a", "m-0", group="g"),
            member("b", "m-1", group="g"),
            member("c", "m-2", group="g"),
        ]
        plan = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        (move,) = plan.moves
        assert move.destination == "m-3"

    def test_anti_affinity_conflict_is_typed_not_a_loop(self):
        # Four group mates, three non-drained machines: no placement exists.
        members = [member(f"a{i}", "m-0", group="g") for i in range(4)]
        with pytest.raises(PlanInfeasibleError) as excinfo:
            plan_drain(members, MACHINES, "m-0", FleetConstraints())
        assert "anti-affinity group 'g'" in str(excinfo.value)

    def test_two_machine_swap_of_group_mates_is_infeasible(self):
        # Swapping a and b would co-locate them mid-plan; the planner
        # refuses rather than schedule a transient violation.
        members = [
            member("a", "m-0", group="g"),
            member("b", "m-1", group="g"),
        ]
        with pytest.raises(PlanInfeasibleError):
            plan_evacuate(members, ["m-0", "m-1"], "default",
                          FleetConstraints())

    def test_movers_own_slot_is_freed_for_the_group(self):
        # With a spare machine, a goes to m-2 and b may then land on m-0 —
        # allowed only because a's departure unpins m-0 for the group.
        members = [
            member("a", "m-0", group="g"),
            member("b", "m-1", group="g"),
        ]
        plan = plan_evacuate(members, ["m-0", "m-1", "m-2"], "default",
                             FleetConstraints())
        destinations = {m.app_name: m.destination for m in plan.moves}
        assert destinations == {"a": "m-2", "b": "m-0"}


class TestPackWaves:
    def _moves(self, n, tenant="default"):
        return [
            PlannedMove(
                app_name=f"a{i}", source="m-0", destination="m-1",
                tenant=tenant,
            )
            for i in range(n)
        ]

    def test_greedy_first_fit_respects_machine_cap(self):
        constraints = FleetConstraints(max_moves_per_machine=2)
        waves = pack_waves(self._moves(5), constraints, "t")
        assert [len(w.moves) for w in waves] == [2, 2, 1]
        assert [w.index for w in waves] == [0, 1, 2]

    def test_tenant_wave_quota_caps_each_wave(self):
        constraints = FleetConstraints(
            max_moves_per_machine=10, tenant_wave_quota=3
        )
        waves = pack_waves(self._moves(7, tenant="t"), constraints, "t")
        assert [len(w.moves) for w in waves] == [3, 3, 1]

    def test_unsatisfiable_caps_raise_instead_of_spinning(self):
        constraints = FleetConstraints(max_moves_per_machine=0)
        with pytest.raises(PlanInfeasibleError) as excinfo:
            pack_waves(self._moves(1), constraints, "t")
        assert "can never admit" in str(excinfo.value)

    def test_no_moves_packs_to_no_waves(self):
        assert pack_waves([], FleetConstraints(), "t") == ()


class TestRebalance:
    def test_rebalance_levels_occupancy(self):
        members = [member(f"a{i}", "m-0") for i in range(8)]
        plan = plan_rebalance(members, MACHINES, FleetConstraints())
        # 8 members over 4 machines: 2 each, so 6 moves off m-0.
        assert len(plan.moves) == 6
        occupancy = {name: 0 for name in MACHINES}
        occupancy["m-0"] = 8
        for move in plan.moves:
            occupancy[move.source] -= 1
            occupancy[move.destination] += 1
        assert max(occupancy.values()) - min(occupancy.values()) <= 1

    def test_balanced_fleet_plans_nothing(self):
        members = [member(f"a{i}", MACHINES[i % 4]) for i in range(8)]
        plan = plan_rebalance(members, MACHINES, FleetConstraints())
        assert plan.moves == []


class TestEvacuate:
    def test_evacuate_moves_only_the_tenant(self):
        members = [
            member("a", "m-0", tenant="victim"),
            member("b", "m-1", tenant="victim"),
            member("c", "m-0", tenant="other"),
        ]
        plan = plan_evacuate(members, MACHINES, "victim", FleetConstraints())
        moved = {m.app_name for m in plan.moves}
        assert moved == {"a", "b"}
        for move in plan.moves:
            assert move.destination != move.source

    def test_unknown_tenant_is_infeasible(self):
        with pytest.raises(PlanInfeasibleError) as excinfo:
            plan_evacuate(
                [member("a", "m-0")], MACHINES, "ghost", FleetConstraints()
            )
        assert "owns no fleet members" in str(excinfo.value)


class TestPlanSerialization:
    def test_plan_round_trips_through_dict_form(self):
        members = [member(f"a{i}", "m-0", tenant=f"t{i % 2}") for i in range(4)]
        plan = plan_drain(
            members, MACHINES, "m-0",
            FleetConstraints(max_moves_per_machine=2),
        )
        data = plan.to_dict()
        rebuilt = [
            PlannedMove.from_dict(move) for wave in data["waves"] for move in wave
        ]
        assert rebuilt == plan.moves
        assert data["intent"] == "drain:m-0"
        assert data["constraints"]["max_moves_per_machine"] == 2

    def test_planning_is_deterministic(self):
        members = [member(f"a{i}", MACHINES[i % 2], group="g" if i < 2 else None)
                   for i in range(6)]
        first = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        second = plan_drain(members, MACHINES, "m-0", FleetConstraints())
        assert first.to_dict() == second.to_dict()


class TestHeapFastPath:
    """The ``_LoadHeap`` placement fast path must be indistinguishable from
    the linear scan it replaced — same plans, same errors, byte for byte."""

    def _random_fleet(self, rng, machine_count, member_count):
        machines = [f"m-{i}" for i in range(machine_count)]
        members = []
        for i in range(member_count):
            group = f"g{rng.randrange(3)}" if rng.random() < 0.3 else None
            members.append(
                member(
                    f"a{i:03d}",
                    rng.choice(machines),
                    tenant=f"t{rng.randrange(4)}",
                    group=group,
                )
            )
        return machines, members

    def test_drain_heap_matches_scan_on_random_fleets(self):
        import random

        rng = random.Random(2018)
        for trial in range(25):
            machines, members = self._random_fleet(
                rng, rng.randrange(3, 9), rng.randrange(4, 25)
            )
            constraints = FleetConstraints(
                machine_capacity=rng.randrange(6, 16),
                capacity_headroom=rng.randrange(0, 2),
            )
            target = rng.choice(machines)
            fast_err = scan_err = None
            try:
                fast_plan = plan_drain(members, machines, target, constraints)
            except PlanInfeasibleError as exc:
                fast_err = str(exc)
            try:
                scan_plan = plan_drain(
                    members, machines, target, constraints, fast=False
                )
            except PlanInfeasibleError as exc:
                scan_err = str(exc)
            assert fast_err == scan_err, f"trial {trial}"
            if fast_err is None:
                assert fast_plan.to_dict() == scan_plan.to_dict(), f"trial {trial}"

    def test_evacuate_heap_matches_scan_on_random_fleets(self):
        import random

        rng = random.Random(99)
        for trial in range(25):
            machines, members = self._random_fleet(
                rng, rng.randrange(3, 9), rng.randrange(4, 25)
            )
            constraints = FleetConstraints(machine_capacity=rng.randrange(6, 16))
            tenant = f"t{rng.randrange(4)}"
            if not any(m.tenant == tenant for m in members):
                continue
            fast_err = scan_err = None
            try:
                fast_plan = plan_evacuate(members, machines, tenant, constraints)
            except PlanInfeasibleError as exc:
                fast_err = str(exc)
            try:
                scan_plan = plan_evacuate(
                    members, machines, tenant, constraints, fast=False
                )
            except PlanInfeasibleError as exc:
                scan_err = str(exc)
            assert fast_err == scan_err, f"trial {trial}"
            if fast_err is None:
                assert fast_plan.to_dict() == scan_plan.to_dict(), f"trial {trial}"

    def test_heap_infeasibility_message_identical_to_scan(self):
        members = [member("a", "m-0", group="g"), member("b", "m-1", group="g")]
        machines = ["m-0", "m-1"]
        with pytest.raises(PlanInfeasibleError) as fast_exc:
            plan_drain(members, machines, "m-0", FleetConstraints())
        with pytest.raises(PlanInfeasibleError) as scan_exc:
            plan_drain(members, machines, "m-0", FleetConstraints(), fast=False)
        assert str(fast_exc.value) == str(scan_exc.value)


class TestResourceClaims:
    def test_move_claims_both_machines(self):
        move = PlannedMove("app", source="m-1", destination="m-0")
        assert move.claims() == frozenset({("machine", "m-1"), ("machine", "m-0")})

    def test_claims_are_direction_agnostic(self):
        forward = PlannedMove("a", source="m-0", destination="m-1")
        reverse = PlannedMove("b", source="m-1", destination="m-0")
        assert forward.claims() == reverse.claims()

    def test_group_claims_is_the_union(self):
        moves = [
            PlannedMove("a", source="m-0", destination="m-2"),
            PlannedMove("b", source="m-1", destination="m-2"),
        ]
        claims = group_claims(moves)
        assert ("machine", "m-0") in claims
        assert ("machine", "m-1") in claims
        assert ("machine", "m-2") in claims
        assert len(claims) == 3


def _group(moves, plan="p", wave=0):
    return {"claims": group_claims(moves), "plan": plan, "wave": wave}


class TestConflictGraph:
    def test_disjoint_groups_never_gate(self):
        graph = build_conflict_graph(
            [
                _group([PlannedMove("a", source="m-0", destination="m-1")], wave=0),
                _group([PlannedMove("b", source="m-2", destination="m-3")], wave=1),
            ]
        )
        assert graph == [(), ()]

    def test_shared_destination_across_waves_serializes(self):
        graph = build_conflict_graph(
            [
                _group([PlannedMove("a", source="m-0", destination="m-2")], wave=0),
                _group([PlannedMove("b", source="m-1", destination="m-2")], wave=1),
            ]
        )
        assert graph == [(), (0,)]

    def test_shared_source_machine_also_serializes(self):
        graph = build_conflict_graph(
            [
                _group([PlannedMove("a", source="m-0", destination="m-1")], wave=0),
                _group([PlannedMove("b", source="m-0", destination="m-2")], wave=1),
            ]
        )
        assert graph == [(), (0,)]

    def test_same_wave_same_plan_peers_never_gate_each_other(self):
        # Both groups touch m-0 (the drained source) but are peers of one
        # wave: the planner already sized that concurrency.
        graph = build_conflict_graph(
            [
                _group([PlannedMove("a", source="m-0", destination="m-1")], wave=0),
                _group([PlannedMove("b", source="m-0", destination="m-2")], wave=0),
            ]
        )
        assert graph == [(), ()]

    def test_same_wave_index_of_different_plans_does_gate(self):
        graph = build_conflict_graph(
            [
                _group(
                    [PlannedMove("a", source="m-0", destination="m-1")],
                    plan="p1",
                    wave=0,
                ),
                _group(
                    [PlannedMove("b", source="m-1", destination="m-2")],
                    plan="p2",
                    wave=0,
                ),
            ]
        )
        assert graph == [(), (0,)]

    def test_transitive_and_direct_edges_are_both_recorded(self):
        # g2 conflicts with g1 and g0; the redundant g0 edge is harmless
        # and deliberately kept (admission counts unfinished gates).
        groups = [
            _group([PlannedMove("a", source="m-0", destination="m-1")], wave=0),
            _group([PlannedMove("b", source="m-1", destination="m-2")], wave=1),
            _group([PlannedMove("c", source="m-1", destination="m-3")], wave=2),
        ]
        assert build_conflict_graph(groups) == [(), (0,), (0, 1)]

    def test_maintenance_window_drain_rounds_are_mostly_disjoint(self):
        # The showcase shape: drain m-0 with m-1 excluded, then m-1 with
        # m-0 excluded — later rounds never refill earlier drained hosts,
        # so only genuinely shared destinations serialize.
        machines = ["m-0", "m-1", "m-2", "m-3"]
        members = [member(f"e{i}", machines[i % 2]) for i in range(4)]
        window = {"m-0", "m-1"}
        constraints = FleetConstraints(max_moves_per_machine=4)
        round0 = plan_drain(members, machines, "m-0", constraints, exclude=window - {"m-0"})
        for move in round0.moves:
            assert move.destination not in window
