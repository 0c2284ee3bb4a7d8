"""The fleet migration service: planner + pre-flight + executor + journal.

:class:`FleetService` is the control plane over a running data center.  It
keeps a registry of fleet members (apps with tenant and anti-affinity
metadata), turns operator intents into :class:`MigrationPlan`\\ s, and
executes plans wave by wave through one executor (``apply``,
``apply_many``, ``resume_plan`` and ``resume_many`` all share it):

* every wave passes :func:`~repro.fleet.preflight.run_preflight` before
  anything freezes;
* dispatch goes through the unified request path — one
  :meth:`MigrationRequest.wave <repro.core.api.MigrationRequest.wave>` per
  (wave, destination) group, executed by ``MigratableApp._execute`` — so the
  fleet rides the exact batched stage/flush/complete protocol the chaos
  sweeps harden.  ``dispatch="serial"`` runs the groups one after the other
  on the virtual clock; with ``dispatch="pipelined"`` each group is
  recorded instead (record-then-replay, see :mod:`repro.sim.scheduler`)
  and all groups of all waves — and, via :meth:`FleetService.apply_many`,
  of several tenants' independent plans — replay on one scheduler, each
  admitted as soon as the machines it claims are free of earlier
  unfinished groups.  Same bytes, same results; only the timing differs;
* members that park (``PENDING_RETRY``) get one in-line ``resume`` pass
  (the PR-2 retry/resume semantics), and stay typed-pending in the
  :class:`PlanResult` if the fault persists;
* progress is journaled durably at every boundary
  (:class:`~repro.fleet.journal.FleetPlanJournal`), so a planner crash at
  *any* instant leaves the fleet resumable via :meth:`resume_plan`.

The ``boundary_hook`` parameter is the chaos harness's crash seam: it is
called at every journal boundary (``planned``, ``started:k``, ``group:k``,
``dispatched:k``, ``done:k``, ``complete``) and may raise to simulate the
planner process dying right there.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.cloud.datacenter import DataCenter
from repro.cloud.storage import MigrationJournal
from repro.core.api import MigrationRequest
from repro.core.policy import PolicySet
from repro.core.protocol import MigratableApp, MigrationEnclaveHost
from repro.core.result import MigrationOutcome, MigrationResult
from repro.core.retry import RetryPolicy
from repro.errors import InvalidParameterError, MigrationError, TransientError
from repro.fleet import planner
from repro.fleet.journal import (
    FleetPlanIndex,
    FleetPlanJournal,
    group_key,
)
from repro.fleet.model import (
    FleetConstraints,
    FleetMember,
    MigrationPlan,
    PlannedMove,
    PlanResult,
    Wave,
    WaveOutcome,
    already_complete_result,
)
from repro.fleet.preflight import run_preflight
from repro.sim.scheduler import Scheduler, TraceRecorder

#: Boundary callback: ``hook(stage, wave_index)``; ``wave_index`` is -1 for
#: the plan-level ``planned`` / ``complete`` boundaries.  Stages: ``planned``,
#: ``started``, ``group`` (after each (wave, destination) group finishes and
#: its completion is journaled), ``dispatched``, ``done``, ``complete``.
BoundaryHook = Callable[[str, int], None]

_NOOP_HOOK: BoundaryHook = lambda stage, index: None


def _all_completed(results: Iterable[MigrationResult]) -> bool:
    return all(result.outcome is MigrationOutcome.COMPLETED for result in results)


@dataclass
class _PlanRun:
    """One plan inside an executor call: its journal and boundary hook, its
    identity in the conflict graph, and the call-wide list its pipelined
    groups are recorded into."""

    journal: FleetPlanJournal
    hook: BoundaryHook = _NOOP_HOOK
    recorded: list[dict] = field(default_factory=list)
    plan_id: int = 0
    #: Scheduler process-name prefix (the plan's journal owner under
    #: ``apply_many``/``resume_many``; empty for a single plan).
    prefix: str = ""


@dataclass
class FleetService:
    """One provider's migration control plane."""

    dc: DataCenter
    hosts: dict[str, MigrationEnclaveHost]
    constraints: FleetConstraints = field(default_factory=FleetConstraints)
    policies: PolicySet = field(default_factory=PolicySet)
    retry_policy: RetryPolicy | None = None
    #: Machine whose disk holds the fleet plan journal; defaults to the
    #: alphabetically first machine of the data center.
    control_machine: str | None = None
    #: Records whether the fleet's MEs were installed with the
    #: attested-session cache; dispatch does not read it.
    session_resumption: bool = False
    #: ``"serial"`` executes the (wave, destination) groups one after the
    #: other on the virtual clock; ``"pipelined"`` records each group and
    #: replays every group of every wave (and of every plan in
    #: :meth:`apply_many`) on one scheduler, admitted the moment no earlier
    #: group with an intersecting machine claim is still running.  The
    #: protocol bytes are identical in both modes — the groups execute in
    #: the same order with the same RNG draws; only the virtual timing
    #: differs.
    dispatch: str = "serial"
    #: Optional :class:`~repro.fleet.registry.SingleInstanceRegistry`.
    #: When set, pre-flight refuses to dispatch while the registry is
    #: unreachable (deny-by-default — a wave must not open a cloning
    #: window the arbiter cannot adjudicate) and ``status()`` reports
    #: clone incidents.
    registry: object = None
    members: dict[str, FleetMember] = field(default_factory=dict)
    #: The scheduler of the most recent pipelined replay (observability:
    #: event log, per-machine CPU busy totals, makespan).
    last_schedule: "Scheduler | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.dispatch not in ("serial", "pipelined"):
            raise InvalidParameterError(
                f"unknown dispatch mode {self.dispatch!r}"
            )

    # ------------------------------------------------------------ registry
    def register(
        self,
        app: MigratableApp,
        *,
        tenant: str = "default",
        anti_affinity_group: str | None = None,
    ) -> FleetMember:
        member = FleetMember(
            app=app, tenant=tenant, anti_affinity_group=anti_affinity_group
        )
        self.members[member.name] = member
        return member

    def placements(self) -> dict[str, list[str]]:
        """``machine -> sorted member names`` (the ``fleet status`` view)."""
        table: dict[str, list[str]] = {name: [] for name in self.machine_names()}
        for member in self.members.values():
            table.setdefault(member.machine, []).append(member.name)
        return {name: sorted(names) for name, names in table.items()}

    def machine_names(self) -> list[str]:
        return sorted(self.dc.machines)

    def journal(self) -> FleetPlanJournal:
        return FleetPlanJournal(self._control_storage())

    # ------------------------------------------------------------- planner
    def plan_drain(
        self, machine: str, *, exclude: frozenset[str] | set[str] = frozenset()
    ) -> MigrationPlan:
        return planner.plan_drain(
            list(self.members.values()), self.machine_names(), machine,
            self.constraints, exclude=exclude,
        )

    def plan_rebalance(self) -> MigrationPlan:
        return planner.plan_rebalance(
            list(self.members.values()), self.machine_names(), self.constraints
        )

    def plan_evacuate(self, tenant: str) -> MigrationPlan:
        return planner.plan_evacuate(
            list(self.members.values()), self.machine_names(), tenant,
            self.constraints,
        )

    # ------------------------------------------------------------ executor
    def apply(
        self, plan: MigrationPlan, *, boundary_hook: BoundaryHook | None = None
    ) -> PlanResult:
        """Execute ``plan`` end to end, journaling at every boundary."""
        return self._execute([(plan, self.journal())], boundary_hook)[0]

    def apply_many(
        self,
        plans: list,
        *,
        boundary_hook: BoundaryHook | None = None,
    ) -> list[PlanResult]:
        """Execute several independent plans under one control plane.

        Each entry is a :class:`MigrationPlan` or a zero-argument *factory*
        returning one — factories are evaluated right before their plan
        executes, so a later plan may depend on the placements the earlier
        plans produced (multi-round drains).  Every plan gets its own
        journal (``plan-0``, ``plan-1``, ... on the control machine) and a
        :class:`FleetPlanIndex` entry, so a planner crash leaves each plan
        independently resumable via :meth:`resume_many`.

        With ``dispatch="pipelined"`` all plans' groups share one conflict
        graph and one scheduler — tenants' independent work overlaps in
        virtual time.  Serial dispatch executes the plans back to back.
        """
        storage = self._control_storage()
        labels = [f"plan-{i}" for i in range(len(plans))]
        journals = [FleetPlanJournal(storage, owner=label) for label in labels]
        index = FleetPlanIndex(storage)
        index.write(labels)
        outcomes = self._execute(
            list(zip(plans, journals)), boundary_hook, labeled=True
        )
        index.clear()
        return outcomes

    def _execute(
        self,
        items: list,
        boundary_hook: BoundaryHook | None,
        *,
        labeled: bool = False,
    ) -> list[PlanResult]:
        """The one executor: plan → pre-flighted wave → (wave, destination)
        group, with a journal boundary (and hook) at each step.

        ``items`` pairs each plan's source with its journal.  The source is
        a plan, a factory evaluated right before its plan runs, or ``None``
        to resume the plan the journal holds.  A serial group charges the
        clock as it runs.  A pipelined group runs under
        :meth:`~repro.sim.costs.CostMeter.recording` — same calls, same RNG
        draws, same wire bytes, clock frozen — and :meth:`_replay` then
        advances the clock once, to the makespan of every recorded group
        on one admission-gated scheduler.  The replay runs in a ``finally``
        so a planner killed mid-dispatch still spends the virtual time its
        finished groups took.
        """
        hook = boundary_hook or _NOOP_HOOK
        recorded: list[dict] = []
        outcomes: list[PlanResult] = []
        try:
            for plan_id, (source, journal) in enumerate(items):
                run = _PlanRun(
                    journal=journal, hook=hook, recorded=recorded,
                    plan_id=plan_id, prefix=f"{journal.owner}:" if labeled else "",
                )
                outcome, waves = self._start_plan(run, source)
                for wave in waves:
                    outcome.waves.append(self._run_wave(run, wave))
                hook("complete", -1)
                journal.clear()
                outcomes.append(outcome)
        finally:
            report = self._replay(recorded)
        if report is not None:
            for outcome in outcomes:
                # Each plan gets its own copy: the report is a nested dict, and
                # one tenant mutating its view must not leak into the others'.
                outcome.utilization = copy.deepcopy(report)
        return outcomes

    def _start_plan(
        self, run: _PlanRun, source
    ) -> tuple[PlanResult, tuple[Wave, ...]]:
        """Journal a fresh plan, or finish a resumed plan's interrupted
        wave; returns the outcome so far and the waves left to run.

        On resume, waves before the journal cursor are already done
        (skipped); a wave marked *started* is reconciled group by group
        (:meth:`_reconcile_wave`)."""
        if source is not None:
            plan = source() if callable(source) else source
            run.journal.write_plan(plan)
            run.hook("planned", -1)
            return PlanResult(intent=plan.intent), plan.waves
        record = run.journal.read()
        if record is None:
            raise MigrationError("no fleet plan in progress")
        waves = record.plan_waves()
        outcome = PlanResult(
            intent=record.intent, resumed=True, skipped_waves=record.next_wave
        )
        cursor = record.next_wave
        if record.wave_started and cursor < len(waves):
            wave = waves[cursor]
            results, outcome.skipped_groups = self._reconcile_wave(
                run, wave, record.done_groups
            )
            run.journal.mark_wave_done(wave.index)
            run.hook("done", wave.index)
            outcome.waves.append(
                WaveOutcome(index=wave.index, moves=wave.moves, results=results)
            )
            cursor += 1
        return outcome, waves[cursor:]

    def _run_wave(self, run: _PlanRun, wave: Wave) -> WaveOutcome:
        """One wave through the full boundary discipline: pre-flight,
        ``started``, one ``group`` boundary per (wave, destination) group
        (journaled done when every member completed), ``dispatched``,
        ``done``."""
        run_preflight(self, wave)
        run.journal.mark_wave_started(wave.index)
        run.hook("started", wave.index)
        results: dict[str, MigrationResult] = {}
        for destination, moves in self._wave_groups(wave):
            group_results = self._dispatch_group(run, wave.index, destination, moves)
            results.update(group_results)
            if _all_completed(group_results.values()):
                run.journal.mark_group_done(wave.index, destination)
            run.hook("group", wave.index)
        run.hook("dispatched", wave.index)
        run.journal.mark_wave_done(wave.index)
        run.hook("done", wave.index)
        return WaveOutcome(index=wave.index, moves=wave.moves, results=results)

    def _wave_groups(self, wave: Wave) -> list[tuple[str, list[PlannedMove]]]:
        """The wave's moves grouped by destination, in the (sorted) order
        every dispatch mode executes them."""
        groups: dict[str, list[PlannedMove]] = {}
        for move in wave.moves:
            groups.setdefault(move.destination, []).append(move)
        return [(destination, groups[destination]) for destination in sorted(groups)]

    def _dispatch_group(
        self,
        run: _PlanRun,
        wave_index: int,
        destination: str,
        moves: list[PlannedMove],
    ) -> dict[str, MigrationResult]:
        """Run one (wave, destination) group — the executor's only mode
        branch.  Serial charges the clock live; pipelined records the group
        for :meth:`_replay`, queued before it runs so a group cut short by
        a crash still replays what it spent."""
        if self.dispatch == "serial":
            return self._run_group(destination, moves)
        recorder = TraceRecorder(home=moves[0].source)
        run.recorded.append(
            {
                "claims": planner.group_claims(moves),
                "plan": run.plan_id,
                "wave": wave_index,
                "name": f"{run.prefix}wave-{wave_index}->{destination}",
                "recorder": recorder,
            }
        )
        with self.dc.meter.recording(recorder):
            return self._run_group(destination, moves)

    def _run_group(
        self, destination: str, moves: list[PlannedMove]
    ) -> dict[str, MigrationResult]:
        """Dispatch one (wave, destination) group and drive its parked
        members' ``resume`` in-line, so the group's journal boundary means
        *finished*, not merely attempted."""
        batch, request = self._group_request(destination, moves)
        batch_results = MigratableApp._execute(request)
        results = {
            app.app_name: result for app, result in zip(batch, batch_results)
        }
        for move in moves:
            result = results[move.app_name]
            if result.outcome is MigrationOutcome.PENDING_RETRY:
                results[move.app_name] = self._try_resume(
                    self.members[move.app_name].app, fallback=result
                )
        return results

    def _replay(self, recorded: list[dict]) -> dict | None:
        """Replay every recorded group on one scheduler, each admitted the
        instant no earlier group with an intersecting machine claim is
        still running (:func:`repro.fleet.planner.build_conflict_graph`), so
        independent waves — and independent tenants' plans — overlap across
        the wave barrier.  Returns the utilization report, or ``None`` when
        nothing was recorded (serial dispatch)."""
        if not recorded:
            return None
        scheduler = Scheduler(self.dc.clock)
        dependencies = planner.build_conflict_graph(recorded)
        processes: list = []
        for group, gates in zip(recorded, dependencies):
            processes.append(
                scheduler.spawn(
                    group["name"],
                    group["recorder"].replay(),
                    home=group["recorder"].home,
                    after=[processes[j] for j in gates],
                )
            )
        scheduler.run()
        self.last_schedule = scheduler
        return scheduler.utilization_report()

    def _group_request(
        self, destination: str, moves: list[PlannedMove]
    ) -> tuple[list[MigratableApp], MigrationRequest]:
        batch = [self.members[move.app_name].app for move in moves]
        return batch, MigrationRequest.wave(
            batch, destination, retry_policy=self.retry_policy
        )

    def _try_resume(
        self, app: MigratableApp, *, fallback: MigrationResult
    ) -> MigrationResult:
        """Drive one parked member's journal forward; if the fault window is
        still open the member simply stays pending (``fallback``)."""
        try:
            return app.resume(retry_policy=self.retry_policy)
        except TransientError:
            return fallback

    def _control_storage(self):
        name = self.control_machine or self.machine_names()[0]
        return self.dc.machine(name).storage

    # -------------------------------------------------------------- resume
    def resume_plan(
        self, *, boundary_hook: BoundaryHook | None = None
    ) -> PlanResult:
        """Pick up a journaled plan after a planner crash.

        Waves before the cursor are already done (skipped).  A wave marked
        *started* is reconciled group by group: groups the journal recorded
        as done are skipped outright; in the rest, members that completed
        before the crash are recognized (cleared journal, enclave serving at
        the destination), parked members are driven by their own ``resume``,
        and members the dispatch never reached are re-dispatched.  Every
        later wave then runs through the same executor as :meth:`apply`, so
        a resumed pipelined plan overlaps its remaining groups across waves
        and reports its ``utilization`` too.

        Raises :class:`MigrationError` when no plan is journaled.
        """
        return self._execute([(None, self.journal())], boundary_hook)[0]

    def resume_many(
        self, *, boundary_hook: BoundaryHook | None = None
    ) -> list[PlanResult]:
        """Resume a multi-plan dispatch: every plan the index lists whose
        journal still exists is resumed independently; plans that finished
        before the crash are skipped silently.

        Raises :class:`MigrationError` when no multi-plan dispatch is in
        progress.
        """
        storage = self._control_storage()
        index = FleetPlanIndex(storage)
        labels = index.read()
        if not labels:
            raise MigrationError("no multi-plan dispatch in progress")
        journals = [FleetPlanJournal(storage, owner=label) for label in labels]
        outcomes = self._execute(
            [(None, journal) for journal in journals if journal.read() is not None],
            boundary_hook,
            labeled=True,
        )
        index.clear()
        return outcomes

    def _reconcile_wave(
        self, run: _PlanRun, wave: Wave, done_groups: tuple[str, ...] = ()
    ) -> tuple[dict[str, MigrationResult], int]:
        """Sort the members of an interrupted wave into done / parked /
        never-started, and finish each class its own way (R3-safe: nothing
        is ever dispatched twice).  Groups the journal already recorded as
        done are skipped wholesale — no member journal reads, no liveness
        probes; returns the results plus the skipped-group count.  The
        never-started members are re-dispatched through the executor's
        group step.

        Group completions are journaled here, not by the partial
        re-dispatch: a re-dispatched subset completing says nothing about
        the group's *other* members (a parked member resumed above may
        still be ``PENDING_RETRY``), so ``mark_group_done`` fires only when
        the aggregate over the group's original membership is all
        ``COMPLETED`` — otherwise a second crash would skip the group and
        falsely report the stuck member done."""
        results: dict[str, MigrationResult] = {}
        fresh: list = []
        pending: list[tuple[str, list[PlannedMove]]] = []
        skipped_groups = 0
        done = set(done_groups)
        for destination, moves in self._wave_groups(wave):
            if group_key(wave.index, destination) in done:
                for move in moves:
                    results[move.app_name] = already_complete_result(
                        self.members[move.app_name].app
                    )
                skipped_groups += 1
                continue
            pending.append((destination, moves))
            for move in moves:
                app = self.members[move.app_name].app
                here = MigrationJournal(app.app.machine.storage, app.app_name)
                if here.read() is not None:
                    # Mid-transaction (parked at the source ME, or arrived
                    # but unconfirmed): the member's own journal knows what
                    # to do.
                    results[move.app_name] = app.resume(
                        retry_policy=self.retry_policy
                    )
                elif (
                    app.app.machine.address == move.destination
                    and app.enclave is not None
                    and app.enclave.alive
                ):
                    # Completed before the crash; only the fleet cursor is
                    # stale.
                    results[move.app_name] = already_complete_result(app)
                else:
                    fresh.append(move)
        if fresh:
            partial = Wave(index=wave.index, moves=tuple(fresh))
            run_preflight(self, partial)
            for destination, moves in self._wave_groups(partial):
                results.update(
                    self._dispatch_group(run, wave.index, destination, moves)
                )
        for destination, moves in pending:
            if _all_completed(results[move.app_name] for move in moves):
                run.journal.mark_group_done(wave.index, destination)
        return results, skipped_groups

    # -------------------------------------------------------------- status
    def status(self) -> str:
        """Human-readable placement table + plan journal state.

        Surfaces the journal-v2 group cursor per plan: which (wave,
        destination) groups are already recorded done — exactly the groups
        a :meth:`resume_plan` would skip outright — against the current
        wave's group total.  A multi-plan dispatch (:meth:`apply_many`)
        lists every plan the index names."""
        lines = ["fleet placements:"]
        for machine, names in self.placements().items():
            lines.append(f"  {machine}: {', '.join(names) or '(empty)'}")
        storage = self._control_storage()
        labels = FleetPlanIndex(storage).read()
        if labels:
            lines.append(f"multi-plan dispatch: {len(labels)} plans indexed")
            for label in labels:
                journal = FleetPlanJournal(storage, owner=label)
                lines.extend(
                    self._plan_status_lines(journal.read(), label=label)
                )
        else:
            lines.extend(self._plan_status_lines(self.journal().read()))
        if self.registry is not None:
            state = (
                "offline (deny-by-default)" if self.registry.offline
                else "online"
            )
            lines.append(
                f"instance registry: {state}, "
                f"{self.registry.incident_count()} clone incidents"
            )
        return "\n".join(lines)

    def _plan_status_lines(self, record, *, label: str = "") -> list[str]:
        """Status lines for one journaled plan (or its absence)."""
        prefix = f"plan journal [{label}]" if label else "plan journal"
        if record is None:
            return [f"{prefix}: no plan in progress"]
        total = len(record.waves)
        state = "started" if record.wave_started else "pending"
        lines = [
            f"{prefix}: {record.intent} — wave "
            f"{record.next_wave}/{total} {state} "
            f"(generation {record.generation})"
        ]
        if record.wave_started and record.next_wave < total:
            wave = record.plan_waves()[record.next_wave]
            group_total = len(self._wave_groups(wave))
            done = sorted(record.done_groups)
            lines.append(
                f"  groups done (skipped on resume): "
                f"{len(done)}/{group_total}"
                + (f" — {', '.join(done)}" if done else "")
            )
        elif record.done_groups:
            # A crash between a group boundary and the wave-done boundary
            # can leave stale group entries with the wave cursor advanced;
            # show them rather than hide progress.
            lines.append(
                "  groups done (skipped on resume): "
                + ", ".join(sorted(record.done_groups))
            )
        return lines

