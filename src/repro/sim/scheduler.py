"""Deterministic discrete-event simulation core.

The synchronous simulator executes one call stack at a time: ``Network.send``
is a nested function call and :class:`~repro.sim.clock.VirtualClock` is a
single serial timeline, so two migrations can never overlap in virtual time.
This module supplies the missing half: a :class:`Scheduler` that owns a
priority queue of timed events (stable FIFO tie-breaking, so a seed fully
determines the event order) and a cooperative process abstraction —
generator-based coroutines that ``yield`` :class:`Charge` and :class:`Sleep`
segments.

Only the resource that binds is contended:

* **CPU** — charges on one machine serialize FIFO (non-preemptive); charges
  on different machines overlap freely.  This is where a migration's time
  goes (PSE counter operations, quotes, IAS round trips).
* **Sleeps** — pure latency (RTTs, payload and VM-memory transfer time,
  retry backoff, injected fault delays); contend with nothing.  Protocol
  payloads (22 B to a few KiB at 10 Gbit/s) last nanoseconds to
  microseconds, so no link is modelled: a transfer never waits for another.

How the sequential paths stay wire-byte identical: concurrency is layered
*on top* of the existing synchronous protocol via record-then-replay.  A
:class:`TraceRecorder` attached to the :class:`~repro.sim.costs.CostMeter`
diverts every charge into a per-process trace instead of the clock while the
protocol runs exactly as before (same calls, same RNG draws, same bytes on
the wire); the recorded traces are then replayed as concurrent scheduler
processes, and only *then* does the clock advance — to the makespan the
contended schedule produced.  Code that never records (every sequential
entry point) never touches this module and charges the clock exactly as it
always has.

The scheduler drives the clock it is given: every event dispatch calls
:meth:`VirtualClock.advance_to`, making the ``VirtualClock`` a live view
over the scheduler's event clock for the duration of a run.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Iterable

from repro.errors import InvalidParameterError, InvalidStateError
from repro.sim.clock import VirtualClock

#: Meter labels that are pure latency: they occupy no CPU.  The three
#: transfer labels are bandwidth time on the network and the VM pre-copy.
LATENCY_LABELS = frozenset({
    "net_rtt", "net_transfer", "vm_precopy", "vm_switchover",
    "retry_backoff", "fault_delay",
})


# ------------------------------------------------------------------ segments
@dataclass(frozen=True)
class Charge:
    """Occupy one machine's CPU for ``seconds`` (FIFO, non-preemptive).

    ``machine=None`` resolves to the owning process's home machine.
    """

    seconds: float
    machine: str | None = None
    label: str = "cpu"


@dataclass(frozen=True)
class Sleep:
    """Pure delay — latency, backoff; contends with nothing."""

    seconds: float
    label: str = "sleep"


Segment = Charge | Sleep


def _normalize(segment: Any) -> Segment:
    if isinstance(segment, (Charge, Sleep)):
        return segment
    if isinstance(segment, (int, float)):
        return Sleep(float(segment))
    raise InvalidParameterError(
        f"process yielded {segment!r}; expected Charge/Sleep or seconds"
    )


# --------------------------------------------------------------- event queue
@dataclass(order=True)
class Event:
    """One scheduled occurrence; ``seq`` breaks time ties FIFO."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class EventQueue:
    """Priority queue of timed events with stable FIFO tie-breaking.

    Two events at the same virtual instant fire in the order they were
    scheduled — the property that makes a seed fully determine a run.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = itertools.count()

    def push(self, time: float, action: Callable[[], None]) -> Event:
        event = Event(time=time, seq=next(self._seq), action=action)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


# ------------------------------------------------------------------- process
@dataclass
class Process:
    """One cooperative coroutine driven by the scheduler.

    ``admitted_at`` is when the process took its first step: equal to
    ``started_at`` for ungated spawns, later for processes spawned with
    ``after=`` dependencies (the pipelined-dispatch admission seam).
    """

    name: str
    home: str | None
    gen: Generator[Any, None, None] = field(repr=False)
    started_at: float = 0.0
    finished_at: float | None = None
    admitted_at: float | None = None
    #: Unfinished dependencies still gating admission (``after=`` spawns).
    waiting_on: int = field(default=0, repr=False)
    #: Processes whose admission waits on this one finishing.
    dependents: "list[Process]" = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        return self.finished_at is not None


class Scheduler:
    """A deterministic discrete-event engine over a :class:`VirtualClock`.

    Spawn processes, then :meth:`run`; the clock is advanced event by event
    (``advance_to``) so ``clock.now`` is a view of the event clock while the
    scheduler runs.  Per-machine CPU busy totals, per-process completion
    times, and the full event log are exposed for tests and golden pins.
    """

    def __init__(self, clock: VirtualClock | None = None) -> None:
        self.clock = clock if clock is not None else VirtualClock()
        self._now = self.clock.now
        self._queue = EventQueue()
        self.processes: list[Process] = []
        self._cpu_free: dict[str, float] = {}
        self.cpu_busy: dict[str, float] = {}
        self.cpu_queued_wait: dict[str, float] = {}
        self._cpu_pending: dict[str, int] = {}
        self.cpu_max_queue_depth: dict[str, int] = {}
        self.event_log: list[dict] = []
        self._running = False

    # ------------------------------------------------------------- spawning
    @property
    def now(self) -> float:
        return self._now

    def spawn(
        self,
        name: str,
        gen: Generator[Any, None, None] | Iterable[Any],
        *,
        home: str | None = None,
        after: Iterable[Process] = (),
    ) -> Process:
        """Register a coroutine; it takes its first step when :meth:`run`
        reaches its start event (scheduled immediately, FIFO with peers).

        ``after`` is the admission gate of pipelined dispatch: the process
        holds its first step until every listed process has finished, then
        starts at exactly that virtual instant (FIFO with peers admitted at
        the same time).  Dependencies already finished at spawn time gate
        nothing; an empty ``after`` reproduces the ungated behavior — and
        the ungated event log — verbatim.
        """
        process = Process(name=name, home=home, gen=iter(gen), started_at=self._now)
        self.processes.append(process)
        pending = [dep for dep in after if not dep.done]
        if pending:
            process.waiting_on = len(pending)
            for dep in pending:
                dep.dependents.append(process)
            self._log("spawn", process.name, waiting_on=len(pending))
        else:
            process.admitted_at = self._now
            self._log("spawn", process.name)
            self._queue.push(self._now, lambda: self._step(process))
        return process

    def _admit(self, process: Process) -> None:
        process.admitted_at = self._now
        self._log("admit", process.name)
        self._queue.push(self._now, lambda: self._step(process))

    # ------------------------------------------------------------ execution
    def run(self) -> float:
        """Drain the event queue; returns (and leaves the clock at) the
        virtual time of the last event — the schedule's makespan."""
        if self._running:
            raise InvalidStateError("scheduler is already running")
        self._running = True
        try:
            while len(self._queue):
                event = self._queue.pop()
                if event.time > self._now:
                    self._now = event.time
                    self.clock.advance_to(self._now)
                event.action()
        finally:
            self._running = False
        for process in self.processes:
            if not process.done:
                raise InvalidStateError(
                    f"process {process.name!r} never finished (empty queue "
                    "with a blocked process is a scheduler bug)"
                )
        return self._now

    # ----------------------------------------------------------- dispatching
    def _step(self, process: Process) -> None:
        try:
            segment = _normalize(next(process.gen))
        except StopIteration:
            process.finished_at = self._now
            self._log("exit", process.name)
            for dependent in process.dependents:
                dependent.waiting_on -= 1
                if dependent.waiting_on == 0:
                    self._admit(dependent)
            return
        if isinstance(segment, Charge):
            self._dispatch_charge(process, segment)
        else:
            self._log("sleep", process.name, seconds=segment.seconds)
            self._queue.push(self._now + segment.seconds, lambda: self._step(process))

    def _dispatch_charge(self, process: Process, segment: Charge) -> None:
        machine = segment.machine or process.home
        if machine is None:
            raise InvalidParameterError(
                f"process {process.name!r} charged CPU with no machine and no home"
            )
        start = max(self._now, self._cpu_free.get(machine, self._now))
        finish = start + segment.seconds
        self._cpu_free[machine] = finish
        self.cpu_busy[machine] = self.cpu_busy.get(machine, 0.0) + segment.seconds
        self.cpu_queued_wait[machine] = (
            self.cpu_queued_wait.get(machine, 0.0) + (start - self._now)
        )
        depth = self._cpu_pending.get(machine, 0) + 1
        self._cpu_pending[machine] = depth
        if depth > self.cpu_max_queue_depth.get(machine, 0):
            self.cpu_max_queue_depth[machine] = depth
        self._log(
            "charge", process.name, machine=machine, seconds=segment.seconds,
            queued=start - self._now,
        )
        self._queue.push(finish, lambda: self._finish_charge(process, machine))

    def _finish_charge(self, process: Process, machine: str) -> None:
        self._cpu_pending[machine] -= 1
        self._step(process)

    # -------------------------------------------------------------- logging
    def _log(self, kind: str, process: str, **detail) -> None:
        entry = {"t": self._now, "event": kind, "process": process}
        entry.update(detail)
        self.event_log.append(entry)

    # ------------------------------------------------------------ reporting
    def makespan(self) -> float:
        """Virtual time from the first spawn to the last completion."""
        if not self.processes:
            return 0.0
        return max(p.finished_at or self._now for p in self.processes) - min(
            p.started_at for p in self.processes
        )

    def utilization_report(self) -> dict:
        """Per-machine CPU busy fractions and queueing stats for the run.

        Makes pipelined speedups explainable: a mode that wins shows higher
        CPU busy fractions over a shorter makespan, not different work.
        ``summary`` is the compact slice bench metadata embeds; its two link
        figures read 0 (no link is modelled) and stay because the
        end-to-end benchmark's tracer reads them.
        """
        span = self.makespan()

        def fraction(busy: float) -> float:
            return busy / span if span > 0 else 0.0

        cpu = {
            machine: {
                "busy_seconds": busy,
                "busy_fraction": fraction(busy),
                "queued_wait_seconds": self.cpu_queued_wait.get(machine, 0.0),
                "max_queue_depth": self.cpu_max_queue_depth.get(machine, 0),
            }
            for machine, busy in sorted(self.cpu_busy.items())
        }
        summary = {
            "makespan": span,
            "machines": len(cpu),
            "mean_cpu_busy_fraction": (
                sum(stats["busy_fraction"] for stats in cpu.values()) / len(cpu)
                if cpu
                else 0.0
            ),
            "max_cpu_queue_depth": max(
                (stats["max_queue_depth"] for stats in cpu.values()), default=0
            ),
            "mean_link_busy_fraction": 0.0,
            "max_link_concurrency": 0,
        }
        return {"makespan": span, "cpu": cpu, "summary": summary}


# ------------------------------------------------------------ trace capture
class TraceRecorder:
    """Captures one synchronous protocol run as a replayable segment trace.

    Attach via :meth:`CostMeter.recording <repro.sim.costs.CostMeter.
    recording>`: every charge is diverted here (the clock stays frozen) and
    classified by label and the meter's attribution context:

    * latency labels (RTT, network and VM transfer time, retry backoff,
      injected fault delay) become :class:`Sleep` segments;
    * everything else becomes CPU :class:`Charge` on the meter's current
      :meth:`~repro.sim.costs.CostMeter.located` machine (falling back to
      the recorder's ``home``), with adjacent same-machine charges coalesced
      so replay stays compact at fleet scale.
    """

    def __init__(self, home: str | None = None) -> None:
        self.home = home
        self.segments: list[Segment] = []

    def record(self, label: str, seconds: float, location: str | None) -> None:
        if label in LATENCY_LABELS:
            self.segments.append(Sleep(seconds, label))
            return
        machine = location or self.home
        if self.segments:
            previous = self.segments[-1]
            if isinstance(previous, Charge) and previous.machine == machine:
                self.segments[-1] = replace(
                    previous, seconds=previous.seconds + seconds
                )
                return
        self.segments.append(Charge(seconds, machine, label))

    def replay(self) -> Generator[Segment, None, None]:
        """A fresh coroutine that re-enacts the recorded segments."""
        return (segment for segment in self.segments)

