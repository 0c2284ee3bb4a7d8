"""The fleet planner: intents -> ordered waves under constraints.

Three intents, one shared machinery:

* ``drain(machine)`` — evacuate every fleet member from one machine (host
  maintenance, the paper's motivating scenario for migration at all).
* ``rebalance()`` — move members from overloaded to underloaded machines
  until occupancy is level (within one enclave).
* ``evacuate(tenant)`` — relocate every enclave of one tenant off its
  current machine (suspected host compromise affecting that tenant).

Planning is two phases, both deterministic (sorted iteration, no RNG):

1. **Placement** — each move gets a destination: the least-loaded machine
   (by projected fleet occupancy, ties by name) that respects anti-affinity
   (no group-mate already there or headed there) and capacity headroom.
   The default fast path keeps a lazy-invalidation heap of
   ``(occupancy, name)`` entries so each move costs O(log machines)
   amortized instead of a full O(machines) scan; the scan survives behind
   ``fast=False`` as the equivalence oracle (see
   ``tests/unit/test_fleet_planner.py``) and both produce byte-identical
   plans and error messages.
2. **Packing** — moves are packed into ordered waves greedy-first-fit under
   the per-wave caps (moves touching one machine, per-tenant concurrency).

Both phases raise :class:`~repro.errors.PlanInfeasibleError` the moment a
move cannot be satisfied — never an unbounded loop, never a silently
shorter plan.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Callable

from repro.errors import PlanInfeasibleError
from repro.fleet.model import (
    FleetConstraints,
    FleetMember,
    MigrationPlan,
    PlannedMove,
    Wave,
)


def _placement(members: list[FleetMember]) -> dict[str, str]:
    """Current ``member name -> machine`` map, snapshot at plan time."""
    return {member.name: member.machine for member in members}


def _infeasible(
    member: FleetMember,
    candidates: list[str],
    constraints: FleetConstraints,
    intent: str,
) -> None:
    """The one placement-infeasibility message, shared by scan and heap."""
    raise PlanInfeasibleError(
        f"{intent}: no feasible destination for {member.name!r} "
        f"(candidates {sorted(candidates)}, "
        f"effective capacity {constraints.effective_capacity}, "
        f"anti-affinity group {member.anti_affinity_group!r})"
    )


class _LoadHeap:
    """Least-loaded-machine index: the phase-1 placement fast path.

    A lazy-invalidation min-heap of ``(occupancy, name)`` entries over every
    machine.  :meth:`adjust` pushes a fresh entry instead of re-heapifying;
    stale entries (whose occupancy no longer matches the counter) are
    discarded when popped — the freshest entry for each machine is always
    present, so dropping stale ones is safe.  :meth:`pick` pops until the
    first entry feasible for the current move and pushes the fresh-but-
    infeasible ones back, which reproduces exactly the scan's
    ``min(feasible, key=(occupancy, name))`` choice and tie-break.

    Per move this costs O((s + 1) log machines) where *s* counts machines
    that are more lightly loaded than the winner yet infeasible for this
    particular move (the source, drained machines, full machines,
    anti-affinity sites) — small in practice, versus the scan's
    unconditional O(machines).
    """

    def __init__(self, occupancy: Counter, machines: list[str]):
        self._occupancy = occupancy
        self._heap: list[tuple[int, str]] = [
            (occupancy[name], name) for name in machines
        ]
        heapq.heapify(self._heap)

    def adjust(self, name: str, delta: int) -> None:
        """Apply an occupancy change and index the machine's new load."""
        self._occupancy[name] += delta
        heapq.heappush(self._heap, (self._occupancy[name], name))

    def pick(self, feasible: Callable[[str, int], bool]) -> str | None:
        """Least-loaded machine satisfying ``feasible(name, occupancy)``.

        Returns ``None`` when no machine qualifies (the caller raises the
        same :class:`PlanInfeasibleError` as the scan path).
        """
        skipped: list[tuple[int, str]] = []
        chosen: str | None = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            occupancy, name = entry
            if occupancy != self._occupancy[name]:
                continue  # stale: a fresher entry exists (or was consumed)
            if feasible(name, occupancy):
                chosen = name
                heapq.heappush(self._heap, entry)
                break
            skipped.append(entry)
        for entry in skipped:
            heapq.heappush(self._heap, entry)
        return chosen


def _pick_destination(
    member: FleetMember,
    candidates: list[str],
    occupancy: Counter,
    group_sites: dict[str, set[str]],
    constraints: FleetConstraints,
    intent: str,
) -> str:
    """Least-loaded feasible machine for one move (phase 1, scan oracle)."""
    group = member.anti_affinity_group
    feasible = [
        name
        for name in candidates
        if occupancy[name] + 1 <= constraints.effective_capacity
        and (group is None or name not in group_sites.get(group, set()))
    ]
    if not feasible:
        _infeasible(member, candidates, constraints, intent)
    return min(feasible, key=lambda name: (occupancy[name], name))


def _assign_destinations(
    members_to_move: list[FleetMember],
    all_members: list[FleetMember],
    machines: list[str],
    excluded: set[str],
    constraints: FleetConstraints,
    intent: str,
    fast: bool = True,
) -> list[PlannedMove]:
    """Phase 1 over every move, tracking projected occupancy and projected
    anti-affinity sites as assignments land.

    ``fast=True`` (the default) picks destinations through the
    :class:`_LoadHeap`; ``fast=False`` keeps the original linear scan as
    the equivalence oracle.  Both produce identical plans and errors.
    """
    occupancy = Counter(_placement(all_members).values())
    group_sites: dict[str, set[str]] = {}
    for member in all_members:
        if member.anti_affinity_group is not None:
            group_sites.setdefault(member.anti_affinity_group, set()).add(
                member.machine
            )
    heap = _LoadHeap(occupancy, machines) if fast else None
    tenant_moves: Counter = Counter()
    moves: list[PlannedMove] = []
    for member in sorted(members_to_move, key=lambda m: m.name):
        quota = constraints.tenant_plan_quota
        if quota is not None and tenant_moves[member.tenant] >= quota:
            raise PlanInfeasibleError(
                f"{intent}: tenant {member.tenant!r} migration quota "
                f"({quota}) exhausted with {member.name!r} still to move"
            )
        source = member.machine
        group = member.anti_affinity_group
        # The mover's own slot frees up: its source stops pinning the group.
        if group is not None:
            group_sites.get(group, set()).discard(source)
        if heap is not None:
            sites = group_sites.get(group, set()) if group is not None else ()
            destination = heap.pick(
                lambda name, load: name != source
                and name not in excluded
                and load + 1 <= constraints.effective_capacity
                and name not in sites
            )
            if destination is None:
                candidates = [
                    name
                    for name in machines
                    if name != source and name not in excluded
                ]
                _infeasible(member, candidates, constraints, intent)
            heap.adjust(source, -1)
            heap.adjust(destination, +1)
        else:
            candidates = [
                name for name in machines if name != source and name not in excluded
            ]
            destination = _pick_destination(
                member, candidates, occupancy, group_sites, constraints, intent
            )
            occupancy[source] -= 1
            occupancy[destination] += 1
        if group is not None:
            group_sites.setdefault(group, set()).add(destination)
        tenant_moves[member.tenant] += 1
        moves.append(
            PlannedMove(
                app_name=member.name,
                source=source,
                destination=destination,
                tenant=member.tenant,
            )
        )
    return moves


def pack_waves(
    moves: list[PlannedMove], constraints: FleetConstraints, intent: str
) -> tuple[Wave, ...]:
    """Phase 2: greedy first-fit of moves into ordered waves.

    A move lands in the earliest wave where its source machine, destination
    machine, and tenant all stay under their per-wave caps.  When even a
    brand-new empty wave cannot take the move, the caps themselves forbid
    it — typed infeasibility, not an infinite stream of empty waves.
    """
    machine_load: list[Counter] = []
    tenant_load: list[Counter] = []
    waves: list[list[PlannedMove]] = []
    for move in moves:
        placed = False
        for index in range(len(waves) + 1):
            if index == len(waves):
                if (
                    constraints.max_moves_per_machine < 1
                    or constraints.tenant_wave_quota < 1
                ):
                    raise PlanInfeasibleError(
                        f"{intent}: per-wave caps "
                        f"(machine {constraints.max_moves_per_machine}, "
                        f"tenant {constraints.tenant_wave_quota}) can never "
                        f"admit {move.app_name!r}"
                    )
                waves.append([])
                machine_load.append(Counter())
                tenant_load.append(Counter())
            if (
                machine_load[index][move.source] + 1
                <= constraints.max_moves_per_machine
                and machine_load[index][move.destination] + 1
                <= constraints.max_moves_per_machine
                and tenant_load[index][move.tenant] + 1
                <= constraints.tenant_wave_quota
            ):
                waves[index].append(move)
                machine_load[index][move.source] += 1
                machine_load[index][move.destination] += 1
                tenant_load[index][move.tenant] += 1
                placed = True
                break
        assert placed  # the fresh-wave branch either admits or raises
    return tuple(
        Wave(index=index, moves=tuple(wave)) for index, wave in enumerate(waves)
    )


def plan_drain(
    members: list[FleetMember],
    machines: list[str],
    machine: str,
    constraints: FleetConstraints,
    fast: bool = True,
    exclude: frozenset[str] | set[str] = frozenset(),
) -> MigrationPlan:
    """Evacuate every fleet member currently on ``machine``.

    ``exclude`` lists additional machines no move may land on — the rest of
    a maintenance window.  Draining hosts one by one *without* excluding the
    others refills each drained host from the next one's evacuees; excluding
    the whole window keeps the drained hosts empty and, as a consequence,
    keeps the rounds' resource claims mostly disjoint (what lets pipelined
    dispatch overlap a multi-host drain).
    """
    intent = f"drain:{machine}"
    movers = [member for member in members if member.machine == machine]
    moves = _assign_destinations(
        movers, members, machines, excluded={machine} | set(exclude),
        constraints=constraints, intent=intent, fast=fast,
    )
    return MigrationPlan(
        intent=intent,
        waves=pack_waves(moves, constraints, intent),
        constraints=constraints,
    )


def plan_rebalance(
    members: list[FleetMember],
    machines: list[str],
    constraints: FleetConstraints,
) -> MigrationPlan:
    """Level fleet occupancy: repeatedly move one member from the fullest
    machine to a feasible destination until max-min occupancy <= 1.

    Bounded: each step strictly shrinks the imbalance, so the loop runs at
    most (total members) iterations; infeasible placements raise.
    """
    intent = "rebalance"
    occupancy = Counter({name: 0 for name in machines})
    occupancy.update(_placement(members).values())
    # Simulated placement the loop mutates; realized as moves.
    location = _placement(members)
    by_machine: dict[str, list[FleetMember]] = {}
    for member in members:
        by_machine.setdefault(member.machine, []).append(member)
    for queue in by_machine.values():
        queue.sort(key=lambda m: m.name)
    moved: list[tuple[FleetMember, str, str]] = []
    for _ in range(len(members)):
        fullest = max(machines, key=lambda name: (occupancy[name], name))
        emptiest = min(machines, key=lambda name: (occupancy[name], name))
        if occupancy[fullest] - occupancy[emptiest] <= 1:
            break
        mover = by_machine[fullest].pop(0)
        group_sites: dict[str, set[str]] = {}
        for member in members:
            group = member.anti_affinity_group
            if group is not None and member.name != mover.name:
                group_sites.setdefault(group, set()).add(location[member.name])
        candidates = [name for name in machines if name != fullest]
        destination = _pick_destination(
            mover, candidates, occupancy, group_sites, constraints, intent
        )
        occupancy[fullest] -= 1
        occupancy[destination] += 1
        location[mover.name] = destination
        by_machine.setdefault(destination, []).append(mover)
        moved.append((mover, fullest, destination))
    moves = [
        PlannedMove(
            app_name=mover.name, source=source, destination=destination,
            tenant=mover.tenant,
        )
        for mover, source, destination in moved
    ]
    return MigrationPlan(
        intent=intent,
        waves=pack_waves(moves, constraints, intent),
        constraints=constraints,
    )


def plan_evacuate(
    members: list[FleetMember],
    machines: list[str],
    tenant: str,
    constraints: FleetConstraints,
    fast: bool = True,
) -> MigrationPlan:
    """Relocate every enclave of ``tenant`` off its current machine."""
    intent = f"evacuate:{tenant}"
    movers = [member for member in members if member.tenant == tenant]
    if not movers:
        raise PlanInfeasibleError(f"{intent}: tenant owns no fleet members")
    moves = _assign_destinations(
        movers, members, machines, excluded=set(), constraints=constraints,
        intent=intent, fast=fast,
    )
    return MigrationPlan(
        intent=intent,
        waves=pack_waves(moves, constraints, intent),
        constraints=constraints,
    )


# ------------------------------------------------------- pipelined admission
def group_claims(moves: tuple[PlannedMove, ...] | list[PlannedMove]) -> frozenset:
    """Union of resource claims of one (wave, destination) dispatch group."""
    claims: set = set()
    for move in moves:
        claims |= move.claims()
    return frozenset(claims)


def build_conflict_graph(
    groups: list[dict],
) -> list[tuple[int, ...]]:
    """Admission dependencies for pipelined dispatch.

    ``groups`` is the global dispatch order — every (wave, destination)
    group of every plan, serialized the way the record phase visited them.
    Each descriptor needs ``claims`` (a frozenset from :func:`group_claims`),
    ``plan`` (an opaque plan identity), and ``wave`` (the wave index inside
    that plan).  Returns, per group, the indices of earlier groups it must
    wait for.

    The edge rule: an earlier group gates a later one iff their claims
    intersect *and* they are not peers of the same wave of the same plan.
    Same-wave peers never gate each other — the planner's per-wave caps
    already sized that concurrency.  Everything else with a shared machine
    serializes in recorded order, which keeps replay contention consistent
    with the wire bytes fixed at record time.

    Transitively-implied edges are left in (an O(n^2) scan, n = groups per
    dispatch, is cheap at fleet scale); the scheduler's admission gate
    counts unfinished dependencies, so redundant edges change nothing.
    """
    dependencies: list[tuple[int, ...]] = []
    for index, group in enumerate(groups):
        gates: list[int] = []
        for earlier in range(index):
            other = groups[earlier]
            if (
                other["plan"] == group["plan"]
                and other["wave"] == group["wave"]
            ):
                continue
            if other["claims"] & group["claims"]:
                gates.append(earlier)
        dependencies.append(tuple(gates))
    return dependencies
