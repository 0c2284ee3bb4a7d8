"""Deterministic discrete-event simulation core.

The synchronous simulator executes one call stack at a time: ``Network.send``
is a nested function call and :class:`~repro.sim.clock.VirtualClock` is a
single serial timeline, so two migrations can never overlap in virtual time.
This module supplies the missing half: a :class:`Scheduler` that owns a
priority queue of timed events (stable FIFO tie-breaking, so a seed fully
determines the event order) and a cooperative process abstraction —
generator-based coroutines that ``yield`` :class:`Charge`, :class:`Transfer`,
and :class:`Sleep` segments.

Only the resource that binds is contended:

* **CPU** — charges on one machine serialize FIFO (non-preemptive); charges
  on different machines overlap freely.  This is where a migration's time
  goes (PSE counter operations, quotes, IAS round trips).
* **Links** — a transfer on the directed ``src -> dst`` link is
  fixed-latency: it ends ``seconds`` after it starts, whatever else is on
  the link.  Protocol payloads (22 B to a few KiB at 10 Gbit/s) last
  nanoseconds to microseconds, so links never bind; each only counts what
  it carried for :meth:`Scheduler.utilization_report`.
* **Sleeps** — pure latency (RTTs, retry backoff, injected fault delays);
  contend with nothing.

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

#: Meter labels that are pure latency: they occupy neither a CPU nor a link.
LATENCY_LABELS = frozenset({"net_rtt", "retry_backoff", "fault_delay"})

#: The meter label the network charges for bandwidth-proportional time.
TRANSFER_LABEL = "net_transfer"


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


@dataclass(frozen=True)
class Transfer:
    """Carry a payload over the directed ``src -> dst`` link; it arrives
    ``seconds`` later, whatever else is in flight on the link."""

    seconds: float
    src: str
    dst: str
    label: str = TRANSFER_LABEL


Segment = Charge | Sleep | Transfer


def _normalize(segment: Any) -> Segment:
    if isinstance(segment, (Charge, Sleep, Transfer)):
        return segment
    if isinstance(segment, (int, float)):
        return Sleep(float(segment))
    raise InvalidParameterError(
        f"process yielded {segment!r}; expected Charge/Sleep/Transfer or seconds"
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


@dataclass
class _Link:
    """What one directed link carried: transfers, the deepest overlap, and
    ``busy_seconds``, the union of the intervals with a transfer in flight."""

    in_flight: int = 0
    busy_since: float = 0.0
    busy_seconds: float = 0.0
    transfers_total: int = 0
    max_concurrent: int = 0


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
        self._links: dict[tuple[str, str], _Link] = {}
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
        elif isinstance(segment, Transfer):
            self._dispatch_transfer(process, segment)
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

    def _dispatch_transfer(self, process: Process, segment: Transfer) -> None:
        link = self._links.setdefault((segment.src, segment.dst), _Link())
        if not link.in_flight:
            link.busy_since = self._now
        link.in_flight += 1
        link.transfers_total += 1
        link.max_concurrent = max(link.max_concurrent, link.in_flight)
        name = f"{segment.src}->{segment.dst}"
        self._log(
            "transfer", process.name, link=name, seconds=segment.seconds,
            sharing=link.in_flight,
        )
        self._queue.push(
            self._now + segment.seconds,
            lambda: self._finish_transfer(process, link, name),
        )

    def _finish_transfer(self, process: Process, link: _Link, name: str) -> None:
        link.in_flight -= 1
        if not link.in_flight:
            link.busy_seconds += self._now - link.busy_since
        self._log("transfer_done", process.name, link=name)
        # Resume through the queue at this instant, not inline as a CPU
        # charge does: events already due at this instant fire first.
        self._queue.push(self._now, lambda: self._step(process))

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
        """Per-resource busy fractions and queueing stats for the run.

        Makes pipelined speedups explainable: a mode that wins shows higher
        CPU/link busy fractions over a shorter makespan, not different work.
        ``summary`` is the compact slice bench metadata embeds.
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
        links = {
            f"{src}->{dst}": {
                "busy_seconds": link.busy_seconds,
                "busy_fraction": fraction(link.busy_seconds),
                "transfers": link.transfers_total,
                "max_concurrent": link.max_concurrent,
            }
            for (src, dst), link in sorted(self._links.items())
        }
        summary = {
            "makespan": span,
            "machines": len(cpu),
            "links": len(links),
            "mean_cpu_busy_fraction": (
                sum(stats["busy_fraction"] for stats in cpu.values()) / len(cpu)
                if cpu
                else 0.0
            ),
            "max_cpu_queue_depth": max(
                (stats["max_queue_depth"] for stats in cpu.values()), default=0
            ),
            "mean_link_busy_fraction": (
                sum(stats["busy_fraction"] for stats in links.values()) / len(links)
                if links
                else 0.0
            ),
            "max_link_concurrency": max(
                (stats["max_concurrent"] for stats in links.values()), default=0
            ),
        }
        return {"makespan": span, "cpu": cpu, "links": links, "summary": summary}


# ------------------------------------------------------------ trace capture
class TraceRecorder:
    """Captures one synchronous protocol run as a replayable segment trace.

    Attach via :meth:`CostMeter.recording <repro.sim.costs.CostMeter.
    recording>`: every charge is diverted here (the clock stays frozen) and
    classified using the meter's attribution context:

    * charges under a :meth:`~repro.sim.costs.CostMeter.on_link` context
      with the ``net_transfer`` label become :class:`Transfer` segments;
    * latency labels (RTT, retry backoff, injected fault delay) become
      :class:`Sleep` segments;
    * everything else becomes CPU :class:`Charge` on the meter's current
      :meth:`~repro.sim.costs.CostMeter.located` machine (falling back to
      the recorder's ``home``), with adjacent same-machine charges coalesced
      so replay stays compact at fleet scale.
    """

    def __init__(self, home: str | None = None) -> None:
        self.home = home
        self.segments: list[Segment] = []

    def record(
        self,
        label: str,
        seconds: float,
        location: str | None,
        link: tuple[str, str] | None,
    ) -> None:
        if label in LATENCY_LABELS:
            self.segments.append(Sleep(seconds, label))
            return
        if link is not None:
            # Any non-latency charge inside an on_link context is bandwidth
            # on that directed pipe (protocol payloads, VM pre-copy rounds).
            self.segments.append(Transfer(seconds, link[0], link[1], label))
            return
        if label == TRANSFER_LABEL:
            # Bandwidth time charged outside any link context (e.g. a disk
            # image copy): no pipe to contend on, but it is not CPU work
            # either — it replays as pure latency.
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

