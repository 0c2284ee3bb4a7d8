"""SEC009 — the migration lifecycle must hold on every call path.

The Migration Library has one legal order: the enclave calls
``migration_init`` once per load, may then seal and operate counters, and
after ``migration_start`` the library is **frozen**; only a start retry is
legal, never another seal or counter operation (Requirement R3: a migrated
source must be unable to keep operating).  Counter freshness has one legal
order too: the increment comes before sealed state is released (Section
III).  The cloning-attack literature shows such bugs often hide one call
deeper: a helper that calls ``migration_start`` on a library the caller
never initialized, or a snapshot helper that seals state before the
caller's counter increment.  So this rule abstract-interprets the machine
over *inlined call paths*, of one function or many: every analyzed
function's lifecycle events are collected together with the events of the
project functions it calls (depth-limited, cycle-guarded), with receivers
unified across the call — ``helper(lib)`` operating on its parameter is
understood to operate on the caller's ``lib``, and ``app.do_start()``
touching ``self.miglib`` is understood to touch ``app.miglib``.
``Enclave.ecall("migration_start")`` string dispatch follows the
call-graph's dispatch edge into the ``@ecall`` method.  (The ME-side
``stage_out``/``retry``/DONE commands are driven by ``migration_start`` /
``confirm_migration`` and are covered through those edges;
``flush_staged`` comes from the host and touches no library.)

The machine (states per receiver)::

    UNINIT --migration_init--> READY --migration_start--> FROZEN
    READY  --op/confirm------> READY
    FROZEN --migration_start-> FROZEN            (Section V-D retry)

Flagged, only for *definitely known* states:

* an operation or ``migration_start`` on a receiver that is still UNINIT
  (constructed but never initialized on this path),
* a second ``migration_init``, or any operation after the freeze,
* sealed state *released* before the function's own counter *increment*
  (the Section III rollback window), once per function, at the increment.

A violation that lies wholly inside one called function is reported there,
once, and not again at each of its callers.  Unknown states stay silent: a
receiver that merely arrives as a parameter has an unknown history, and
the library's own runtime checks guard it.  A lifecycle call inside a
``try`` body is judged against the state before it, but it may have
raised, so the state it would establish is unknown: a ``migration_init``
retried in the ``except`` branch is not a second init.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.engine import ProjectRule, terminal_name
from repro.analysis.findings import Finding, TraceStep

_INLINE_DEPTH = 3

_INITS = frozenset({"migration_init"})
_STARTS = frozenset({"migration_start"})
_CONFIRMS = frozenset({"confirm_migration"})
_OPS = frozenset(
    {
        "seal_migratable_data",
        "unseal_migratable_data",
        "create_migratable_counter",
        "destroy_migratable_counter",
        "increment_migratable_counter",
        "read_migratable_counter",
    }
)
_RELEASES = frozenset({"seal_data", "seal_migratable_data"})
_INCREMENTS = frozenset({"increment_migratable_counter", "increment_monotonic_counter"})

_EDGES = {
    ("UNINIT", "init"): "READY",
    ("READY", "op"): "READY",
    ("READY", "confirm"): "READY",
    ("READY", "start"): "FROZEN",
    ("FROZEN", "start"): "FROZEN",
}

#: What an event does to an UNKNOWN-state receiver (no violation, but the
#: *result* state is known afterwards).
_FROM_UNKNOWN = {"init": "READY", "start": "FROZEN"}


def _event_kind(method: str) -> str | None:
    if method in _INITS:
        return "init"
    if method in _STARTS:
        return "start"
    if method in _CONFIRMS:
        return "confirm"
    if method in _OPS:
        return "op"
    return None


@dataclass
class Event:
    kind: str  # new | kill | init | start | confirm | op | release | increment
    key: str | None  # receiver key ("" for key-less release/increment events)
    node: ast.AST  # the event's own AST node (in fid's module)
    fid: str  # function the event physically occurs in
    site_node: ast.AST | None = None  # caller-level call that inlined it
    site_fid: str = ""
    maybe: bool = False  # inside a try body: may not have happened


@dataclass(frozen=True)
class _Step:
    """One call or assignment of a function, in evaluation order: the events
    it emits itself, and for a call that inlines, the callees to inline."""

    own: tuple[Event, ...]
    call: ast.Call | None = None
    callees: tuple[str, ...] = ()  # first resolved callee of each call site
    dispatch: bool = False
    maybe: bool = False  # inside a try body


def _key_of(expr: ast.AST) -> str | None:
    """A stable receiver key: ``lib`` → ``"lib"``, ``self.miglib`` →
    ``"self.miglib"``, ``app.lib`` → ``"app.lib"``; anything else → None."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        base = _key_of(expr.value)
        return f"{base}.{expr.attr}" if base is not None else None
    return None


class LifecycleRule(ProjectRule):
    rule_id = "SEC009"
    title = "Library lifecycle and increment-before-release must hold on every call path"
    requirement = "R3"
    fix_hint = (
        "drive the library as migration_init -> operations -> "
        "migration_start on every call path, and increment the counter "
        "before sealed state is released"
    )

    def check_project(self, project) -> Iterator[Finding]:
        self._project = project
        self._steps_by_fid: dict[str, list[_Step]] = {}
        for fn in project.functions.values():
            if fn.is_context:
                continue
            if fn.module.display_path in project.context_paths:
                continue
            events = self._events_for(fn, depth=0, visited=frozenset())
            if not events:
                continue
            yield from self._simulate(fn, events)
            yield from self._check_release_order(fn, events)

    # ------------------------------------------------------- event extraction
    def _events_for(self, fn, depth: int, visited: frozenset) -> list[Event]:
        if fn.fid in visited:
            return []
        visited = visited | {fn.fid}
        events: list[Event] = []
        for step in self._steps(fn):
            events.extend(step.own)
            if step.call is None or depth >= _INLINE_DEPTH:
                continue
            # Inline the callee's events with receivers mapped into our frame.
            for fid in step.callees:
                callee = self._project.function_at(fid)
                if callee is None or callee.fid in visited:
                    continue
                sub = self._events_for(callee, depth + 1, visited)
                if not sub:
                    continue
                mapping = self._frame_mapping(fn, step.call, callee, step.dispatch)
                for event in sub:
                    mapped = self._map_key(event.key, mapping, callee)
                    if mapped is _DROP:
                        continue
                    events.append(
                        Event(
                            kind=event.kind,
                            key=mapped,
                            node=event.node,
                            fid=event.fid,
                            # Always re-anchor to *this* frame's call: after
                            # the last mapping the site is a node in the root
                            # function's own module, so path and line agree.
                            site_node=step.call,
                            site_fid=fn.fid,
                            maybe=event.maybe or step.maybe,
                        )
                    )
        return events

    def _steps(self, fn) -> list[_Step]:
        """``fn``'s calls and assignments in evaluation order, walked once
        per function however many roots inline it."""
        steps = self._steps_by_fid.get(fn.fid)
        if steps is not None:
            return steps
        nodes = sorted(
            (n for n in ast.walk(fn.node) if isinstance(n, (ast.Assign, ast.Call))),
            key=lambda n: (n.lineno, n.col_offset),
        )
        # Line ranges of ``try`` bodies: a lifecycle call there *may* have
        # raised, so the state it would establish is not definite.
        try_lines = [
            (n.body[0].lineno, n.body[-1].end_lineno or n.body[-1].lineno)
            for n in ast.walk(fn.node)
            if isinstance(n, ast.Try) and n.body
        ]
        callees: dict[int, list[str]] = {}
        for site in self._project.calls_by_caller.get(fn.fid, ()):
            if site.callees:
                callees.setdefault(id(site.node), []).append(site.callees[0])
        steps = []
        seen_calls: set[int] = set()

        def call_step(call: ast.Call) -> None:
            seen_calls.add(id(call))
            maybe = any(lo <= call.lineno <= hi for lo, hi in try_lines)
            steps.append(
                self._call_step(fn, call, tuple(callees.get(id(call), ())), maybe)
            )

        for node in nodes:
            if isinstance(node, ast.Assign):
                # `x = f(x)`: f's events happen *before* the rebinding of x,
                # so drain the RHS calls first, then emit the kill/new.
                for inner in ast.walk(node.value):
                    if isinstance(inner, ast.Call) and id(inner) not in seen_calls:
                        call_step(inner)
                steps.append(_Step(own=self._assign_events(fn, node)))
            elif id(node) not in seen_calls:
                call_step(node)
        self._steps_by_fid[fn.fid] = steps
        return steps

    @staticmethod
    def _assign_events(fn, node: ast.Assign) -> tuple[Event, ...]:
        is_construction = (
            isinstance(node.value, ast.Call)
            and terminal_name(node.value.func) == "MigrationLibrary"
        )
        return tuple(
            Event(kind="new" if is_construction else "kill", key=key, node=node, fid=fn.fid)
            for key in map(_key_of, node.targets)
            if key is not None
        )

    @staticmethod
    def _call_step(fn, call: ast.Call, callees: tuple[str, ...], maybe: bool) -> _Step:
        method = None
        receiver_key = None
        dispatch = False
        if isinstance(call.func, ast.Attribute):
            if (
                call.func.attr == "ecall"
                and call.args
                and isinstance(call.args[0], ast.Constant)
                and isinstance(call.args[0].value, str)
            ):
                method = call.args[0].value
                receiver_key = _key_of(call.func.value)
                dispatch = True
            else:
                method = call.func.attr
                receiver_key = _key_of(call.func.value)
        elif isinstance(call.func, ast.Name):
            method = call.func.id

        own: list[Event] = []
        if method is not None and receiver_key is not None:
            kind = _event_kind(method)
            if kind is not None:
                own.append(
                    Event(kind=kind, key=receiver_key, node=call, fid=fn.fid, maybe=maybe)
                )
        # Release and increment events carry no key, so any receiver counts:
        # a bare ``seal_data(...)``, ``self.libs[i].seal_migratable_data(...)``.
        if method in _RELEASES:
            own.append(Event(kind="release", key="", node=call, fid=fn.fid))
        if method in _INCREMENTS:
            own.append(Event(kind="increment", key="", node=call, fid=fn.fid))
        # A direct library-API call is atomic — its event above *is* its
        # model; inlining MigrationLibrary's implementation would re-count
        # the library's internal `_persist` against every caller.  The
        # ECALL dispatch edge still inlines: the event there is on the
        # *enclave* key and the wrapper's `self.miglib.*` is the real op.
        if (own and not dispatch) or not callees:
            return _Step(own=tuple(own))
        return _Step(tuple(own), call, callees, dispatch, maybe)

    def _frame_mapping(self, fn, call: ast.Call, callee, dispatch: bool) -> dict:
        """callee-frame key prefix → caller-frame key prefix."""
        mapping: dict[str, str | None] = {}
        params = callee.params
        if callee.class_name is not None and params and params[0] == "self":
            receiver = None
            if isinstance(call.func, ast.Attribute):
                receiver = _key_of(call.func.value)
            mapping["self"] = receiver  # None → unmapped, kept opaque
            params = params[1:]
        args = list(call.args)
        if dispatch:
            args = args[1:]  # args[0] is the ECALL name
        for index, param in enumerate(params):
            if index < len(args):
                mapping[param] = _key_of(args[index])
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in callee.params:
                mapping[kw.arg] = _key_of(kw.value)
        return mapping

    def _map_key(self, key: str | None, mapping: dict, callee):
        if key is None:
            return None
        if key == "":
            return ""  # key-less release/increment events pass through
        head, _, rest = key.partition(".")
        if head in mapping:
            target = mapping[head]
            if target is None:
                return _DROP  # receiver not expressible in the caller's frame
            return f"{target}.{rest}" if rest else target
        # Callee-local receiver: its whole lifecycle is judged when the
        # callee is analyzed as a root; re-simulating it here (possibly from
        # several call sites of the same callee) only double-reports.
        return _DROP

    # ------------------------------------------------------------ simulation
    def _simulate(self, fn, events: list[Event]) -> Iterator[Finding]:
        state: dict[str, str] = {}
        # What each inlined call of this function would see on its own,
        # from an unknown start: the callee analyzed as a root.
        per_site: dict[int, dict[str, str]] = {}
        for event in events:
            if event.key in (None, ""):
                continue
            current = _step(state, event)
            if event.site_node is not None:
                alone = per_site.setdefault(id(event.site_node), {})
                if _step(alone, event) is not None:
                    # The violation lies inside the callee: reported there
                    # once, not again at every caller.
                    continue
            if current is not None:
                yield self._violation_finding(fn, event, current)

    def _violation_finding(self, fn, event: Event, current: str) -> Finding:
        project = self._project
        inner = project.function_at(event.fid)
        site_node = event.site_node if event.site_node is not None else event.node
        line = getattr(site_node, "lineno", 1)
        trace = []
        if event.site_node is not None and inner is not None:
            inner_line = getattr(event.node, "lineno", 1)
            trace.append(
                TraceStep(
                    path=inner.module.display_path,
                    line=inner_line,
                    text=inner.module.line_text(inner_line),
                    note=f"lifecycle event {event.kind!r} inside {inner.qualname}()",
                )
            )
        trace.append(
            TraceStep(
                path=fn.module.display_path,
                line=line,
                text=fn.module.line_text(line),
                note=f"reached from here with {event.key!r} in state {current}",
            )
        )
        pretty = {"init": "migration_init", "start": "migration_start",
                  "confirm": "confirm_migration", "op": "library operation"}
        return Finding(
            path=fn.module.display_path,
            line=line,
            col=getattr(site_node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=(
                f"illegal {pretty.get(event.kind, event.kind)} on {event.key!r} "
                f"in state {current} (legal: "
                "UNINIT-init->READY, READY-op->READY, READY-start->FROZEN, "
                "FROZEN-start->FROZEN)"
            ),
            hint=self.fix_hint,
            text=fn.module.line_text(line),
            trace=tuple(trace),
        )

    # --------------------------------------------------- rollback window
    def _check_release_order(self, fn, events: list[Event]) -> Iterator[Finding]:
        # Only the root's *own* increment is judged, against a release in
        # the root or buried in a helper before it.  Increments inlined
        # from callees are those callees' transactions, judged there.
        releases = [e for e in events if e.kind == "release"]
        increments = [e for e in events if e.kind == "increment" and e.fid == fn.fid]
        if not releases or not increments:
            return
        first_release = releases[0]
        position = events.index(first_release)
        if any(events.index(e) < position for e in increments):
            return  # an increment precedes the first release: discipline held
        late = increments[0]
        project = self._project
        release_fn = project.function_at(first_release.fid)
        line = getattr(late.site_node or late.node, "lineno", 1)
        release_line = getattr(first_release.node, "lineno", 1)
        trace = []
        if release_fn is not None:
            trace.append(
                TraceStep(
                    path=release_fn.module.display_path,
                    line=release_line,
                    text=release_fn.module.line_text(release_line),
                    note=f"sealed state released in {release_fn.qualname}()",
                )
            )
        trace.append(
            TraceStep(
                path=fn.module.display_path,
                line=line,
                text=fn.module.line_text(line),
                note="counter incremented only here, after the release",
            )
        )
        yield Finding(
            path=fn.module.display_path,
            line=line,
            col=getattr(late.site_node or late.node, "col_offset", 0) + 1,
            rule=self.rule_id,
            severity=self.severity,
            message=(
                "sealed state is released (in "
                f"{release_fn.qualname if release_fn else 'a helper'}) before "
                "this counter increment — a crash between them leaves a "
                "replayable stale blob (Section III rollback)"
            ),
            hint=self.fix_hint,
            text=fn.module.line_text(line),
            trace=tuple(trace),
        )


#: Sentinel for receiver keys that cannot be expressed in the caller frame.
_DROP = object()


def _step(state: dict[str, str], event: Event) -> str | None:
    """Apply one keyed event to the receiver states; return the state it is
    illegal in, or None.  An illegal event leaves the state unchanged, so
    later events are judged against it."""
    key = event.key
    if event.kind == "new":
        state[key] = "UNINIT"
        return None
    if event.kind == "kill":
        # Rebinding `enclave` invalidates `enclave.miglib` too.
        state[key] = "UNKNOWN"
        prefix = key + "."
        for other in list(state):
            if other.startswith(prefix):
                state[other] = "UNKNOWN"
        return None
    current = state.get(key, "UNKNOWN")
    illegal = None
    if current == "UNKNOWN":
        next_state = _FROM_UNKNOWN.get(event.kind, "UNKNOWN")
    else:
        next_state = _EDGES.get((current, event.kind))
        if next_state is None:
            illegal, next_state = current, current
    # Inside a try body the call may have raised: it is judged against the
    # known state, but the state it would establish is not definite.
    state[key] = "UNKNOWN" if event.maybe else next_state
    return illegal
