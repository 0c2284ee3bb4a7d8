"""Unit tests for the discrete-event simulation core (repro.sim.scheduler).

Pins the contracts the pipelined fleet dispatch rides on: stable FIFO
tie-breaking in the event queue, FIFO non-preemptive CPU contention,
trace-recorder segment mapping (transfers replay as latency), the meter's
recording/attribution contexts, and bit-for-bit determinism of full runs.
"""

import pytest

from repro.errors import InvalidParameterError, InvalidStateError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng
from repro.sim.scheduler import (
    Charge,
    EventQueue,
    Scheduler,
    Sleep,
    TraceRecorder,
)


def meter(seed=0):
    return CostMeter(
        model=CostModel(), clock=VirtualClock(), rng=DeterministicRng(seed)
    )


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("late"))
        queue.push(1.0, lambda: order.append("early"))
        while len(queue):
            queue.pop().action()
        assert order == ["early", "late"]

    def test_ties_break_fifo(self):
        queue = EventQueue()
        order = []
        for i in range(10):
            queue.push(1.0, lambda i=i: order.append(i))
        while len(queue):
            queue.pop().action()
        assert order == list(range(10))


class TestSchedulerBasics:
    def test_sleeps_advance_the_clock(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        sched.spawn("p", iter([Sleep(1.5), Sleep(0.5)]))
        final = sched.run()
        assert final == pytest.approx(2.0)
        assert clock.now == pytest.approx(2.0)

    def test_bare_numbers_are_sleeps(self):
        sched = Scheduler()
        sched.spawn("p", iter([1.0, 2]))
        assert sched.run() == pytest.approx(3.0)

    def test_invalid_yield_is_typed(self):
        sched = Scheduler()
        sched.spawn("p", iter(["not a segment"]))
        with pytest.raises(InvalidParameterError, match="expected Charge"):
            sched.run()

    def test_charge_without_machine_or_home_is_typed(self):
        sched = Scheduler()
        sched.spawn("p", iter([Charge(1.0)]))
        with pytest.raises(InvalidParameterError, match="no machine and no home"):
            sched.run()

    def test_charge_machine_falls_back_to_home(self):
        sched = Scheduler()
        sched.spawn("p", iter([Charge(1.0)]), home="m-0")
        sched.run()
        assert sched.cpu_busy == {"m-0": pytest.approx(1.0)}

    def test_clock_never_rewinds(self):
        clock = VirtualClock()
        clock.advance(5.0)
        with pytest.raises(ValueError, match="cannot rewind"):
            clock.advance_to(1.0)


class TestCpuContention:
    def test_same_machine_charges_serialize_fifo(self):
        sched = Scheduler()
        a = sched.spawn("a", iter([Charge(1.0, "m-0")]))
        b = sched.spawn("b", iter([Charge(1.0, "m-0")]))
        final = sched.run()
        # Non-preemptive FIFO: b waits for a, makespan is the sum.
        assert final == pytest.approx(2.0)
        assert a.finished_at == pytest.approx(1.0)
        assert b.finished_at == pytest.approx(2.0)
        assert sched.cpu_busy["m-0"] == pytest.approx(2.0)

    def test_different_machines_overlap(self):
        sched = Scheduler()
        sched.spawn("a", iter([Charge(1.0, "m-0")]))
        sched.spawn("b", iter([Charge(1.0, "m-1")]))
        assert sched.run() == pytest.approx(1.0)

    def test_spawn_order_decides_cpu_queue_order(self):
        sched = Scheduler()
        first = sched.spawn("first", iter([Charge(1.0, "m-0")]))
        second = sched.spawn("second", iter([Charge(2.0, "m-0")]))
        sched.run()
        assert first.finished_at < second.finished_at


class TestDeterminism:
    def _world(self):
        sched = Scheduler()
        for i in range(4):
            sched.spawn(
                f"p{i}",
                iter(
                    [
                        Charge(0.25, f"m-{i % 2}"),
                        Sleep(0.5, "net_transfer"),
                        Sleep(0.1),
                        Charge(0.1, f"m-{i % 2}"),
                    ]
                ),
            )
        return sched

    def test_identical_runs_produce_identical_logs(self):
        one, two = self._world(), self._world()
        t1, t2 = one.run(), two.run()
        assert t1 == t2
        assert one.event_log == two.event_log
        assert one.cpu_busy == two.cpu_busy

    def test_makespan_spans_first_spawn_to_last_exit(self):
        sched = self._world()
        final = sched.run()
        assert sched.makespan() == pytest.approx(final)


class TestTraceRecorder:
    def test_label_mapping(self):
        rec = TraceRecorder(home="m-0")
        rec.record("net_rtt", 0.1, None)
        rec.record("net_transfer", 0.2, None)
        rec.record("ecall", 0.3, "m-1")
        rec.record("retry_backoff", 0.4, None)
        rec.record("fault_delay", 0.5, None)
        assert rec.segments == [
            Sleep(0.1, "net_rtt"),
            Sleep(0.2, "net_transfer"),
            Charge(0.3, "m-1", "ecall"),
            Sleep(0.4, "retry_backoff"),
            Sleep(0.5, "fault_delay"),
        ]

    def test_transfer_labels_replay_as_sleeps(self):
        # Bandwidth time is latency wherever it is charged: a located
        # transfer never turns into a CPU charge on that machine.
        rec = TraceRecorder(home="m-0")
        for label in ("net_transfer", "vm_precopy", "vm_switchover"):
            rec.record(label, 0.2, "m-1")
        assert rec.segments == [
            Sleep(0.2, "net_transfer"),
            Sleep(0.2, "vm_precopy"),
            Sleep(0.2, "vm_switchover"),
        ]

    def test_adjacent_same_machine_charges_coalesce(self):
        rec = TraceRecorder(home="m-0")
        rec.record("ecall", 0.25, "m-1")
        rec.record("seal", 0.5, "m-1")
        rec.record("ecall", 0.125, "m-2")
        assert rec.segments == [
            Charge(0.75, "m-1", "ecall"),
            Charge(0.125, "m-2", "ecall"),
        ]

    def test_unlocated_charges_fall_back_to_home(self):
        rec = TraceRecorder(home="m-7")
        rec.record("misc", 0.5, None)
        assert rec.segments == [Charge(0.5, "m-7", "misc")]

    def test_replay_reenacts_the_trace_on_a_scheduler(self):
        rec = TraceRecorder(home="m-0")
        rec.record("ecall", 0.25, "m-0")
        rec.record("net_rtt", 0.1, None)
        sched = Scheduler()
        sched.spawn("replay", rec.replay(), home=rec.home)
        assert sched.run() == pytest.approx(0.35)
        assert sched.cpu_busy == {"m-0": pytest.approx(0.25)}


class TestMeterRecording:
    def test_recording_freezes_the_clock_and_diverts_charges(self):
        m = meter()
        rec = TraceRecorder(home="m-0")
        with m.recording(rec):
            m.charge_exact("ecall", 0.5)
            assert m.now == 0.5  # the protocol's view still moves
        assert m.clock.now == 0.0  # frozen while recording
        assert rec.segments == [Charge(0.5, "m-0", "ecall")]
        m.charge_exact("ecall", 0.5)  # recorder detached: clock moves again
        assert m.clock.now == pytest.approx(0.5)

    def test_rng_draw_order_is_recording_invariant(self):
        sequential, recorded = meter(seed=3), meter(seed=3)
        sequential.charge("ecall", 0.1)
        recorder = TraceRecorder(home="m")
        with recorded.recording(recorder):
            recorded.charge("ecall", 0.1)
        # Same noisy sample either way — the wire-byte-invariance keystone.
        assert recorder.segments == [Charge(sequential.clock.now, "m", "ecall")]

    def test_located_nests_and_restores(self):
        m = meter()
        rec = TraceRecorder(home="m-0")
        with m.recording(rec):
            with m.located("m-1"):
                with m.located("m-2"):
                    m.charge_exact("inner", 0.1)
                m.charge_exact("outer", 0.1)
                m.charge_exact("net_transfer", 0.2)
            m.charge_exact("plain", 0.1)
        assert rec.segments == [
            Charge(0.1, "m-2", "inner"),
            Charge(0.1, "m-1", "outer"),
            Sleep(0.2, "net_transfer"),
            Charge(0.1, "m-0", "plain"),
        ]
        assert m.location is None

    def test_nested_recording_is_typed(self):
        m = meter()
        with m.recording(TraceRecorder()):
            with pytest.raises(InvalidStateError, match="already in progress"):
                with m.recording(TraceRecorder()):
                    pass

    def test_contexts_are_inert_without_a_recorder(self):
        m = meter()
        with m.located("m-1"):
            m.charge_exact("ecall", 0.5)
        assert m.clock.now == pytest.approx(0.5)


class TestSchedulerLifecycle:
    def test_run_twice_is_fine_but_not_reentrant(self):
        sched = Scheduler()
        sched.spawn("p", iter([Sleep(1.0)]))
        sched.run()
        # A second run with nothing queued is a no-op at the same time.
        assert sched.run() == pytest.approx(1.0)

    def test_spawn_after_run_continues_the_timeline(self):
        clock = VirtualClock()
        sched = Scheduler(clock)
        sched.spawn("first", iter([Sleep(1.0)]))
        sched.run()
        sched.spawn("second", iter([Sleep(1.0)]))
        assert sched.run() == pytest.approx(2.0)
        assert clock.now == pytest.approx(2.0)


class TestGatedAdmission:
    def test_after_holds_the_first_step_until_dependencies_exit(self):
        sched = Scheduler()
        a = sched.spawn("a", iter([Charge(2.0, "m-0")]))
        b = sched.spawn("b", iter([Charge(1.0, "m-1")]))
        c = sched.spawn("c", iter([Charge(1.0, "m-2")]), after=[a, b])
        sched.run()
        # c admits at max(a, b) finish and only then burns its second.
        assert c.admitted_at == pytest.approx(2.0)
        assert c.finished_at == pytest.approx(3.0)
        assert a.finished_at == pytest.approx(2.0)
        assert b.finished_at == pytest.approx(1.0)

    def test_disjoint_gates_admit_independently(self):
        sched = Scheduler()
        fast = sched.spawn("fast", iter([Charge(1.0, "m-0")]))
        slow = sched.spawn("slow", iter([Charge(3.0, "m-1")]))
        after_fast = sched.spawn("after-fast", iter([Charge(1.0, "m-2")]), after=[fast])
        after_slow = sched.spawn("after-slow", iter([Charge(1.0, "m-3")]), after=[slow])
        final = sched.run()
        # The fast chain does not wait for the slow one: no wave barrier.
        assert after_fast.admitted_at == pytest.approx(1.0)
        assert after_slow.admitted_at == pytest.approx(3.0)
        assert final == pytest.approx(4.0)

    def test_finished_dependencies_gate_nothing(self):
        sched = Scheduler()
        a = sched.spawn("a", iter([Sleep(1.0)]))
        sched.run()
        b = sched.spawn("b", iter([Sleep(1.0)]), after=[a])
        # a is already done, so b admits at spawn time, no "admit" event.
        assert b.waiting_on == 0
        assert b.admitted_at == pytest.approx(1.0)
        sched.run()
        assert not any(entry["event"] == "admit" for entry in sched.event_log)

    def test_gated_spawn_logs_waiting_and_admit_events(self):
        sched = Scheduler()
        a = sched.spawn("a", iter([Sleep(1.0)]))
        sched.spawn("b", iter([Sleep(1.0)]), after=[a])
        sched.run()
        kinds = [(entry["event"], entry["process"]) for entry in sched.event_log]
        assert ("spawn", "a") in kinds
        assert ("spawn", "b") in kinds
        assert ("admit", "b") in kinds
        admit_index = kinds.index(("admit", "b"))
        assert kinds.index(("exit", "a")) < admit_index

    def test_ungated_event_log_is_unchanged_by_the_feature(self):
        plain = Scheduler()
        plain.spawn("p", iter([Charge(1.0, "m-0")]))
        plain.run()
        explicit = Scheduler()
        explicit.spawn("p", iter([Charge(1.0, "m-0")]), after=[])
        explicit.run()
        assert plain.event_log == explicit.event_log

    def test_unfinished_gated_process_is_a_scheduler_bug(self):
        sched = Scheduler()
        a = sched.spawn("a", iter([Sleep(1.0)]))
        b = sched.spawn("b", iter([Sleep(1.0)]))
        # Simulate a cycle-ish bug: gate on a process that never exits by
        # inflating waiting_on behind the scheduler's back.
        c = sched.spawn("c", iter([Sleep(1.0)]), after=[a, b])
        c.waiting_on += 1
        with pytest.raises(InvalidStateError, match="never finished"):
            sched.run()


class TestUtilizationReport:
    def test_busy_fractions_and_queue_depth(self):
        sched = Scheduler()
        sched.spawn("a", iter([Charge(1.0, "m-0")]))
        sched.spawn("b", iter([Charge(1.0, "m-0")]))
        sched.spawn("c", iter([Charge(2.0, "m-1")]))
        sched.run()
        report = sched.utilization_report()
        assert report["makespan"] == pytest.approx(2.0)
        m0 = report["cpu"]["m-0"]
        assert m0["busy_seconds"] == pytest.approx(2.0)
        assert m0["busy_fraction"] == pytest.approx(1.0)
        # b queued behind a for one second on m-0; depth counts the
        # running charge, so a contended CPU peaks at 2 and an
        # uncontended one at 1.
        assert m0["queued_wait_seconds"] == pytest.approx(1.0)
        assert m0["max_queue_depth"] == 2
        m1 = report["cpu"]["m-1"]
        assert m1["queued_wait_seconds"] == pytest.approx(0.0)
        assert m1["max_queue_depth"] == 1

    def test_summary_is_the_compact_bench_slice(self):
        sched = Scheduler()
        sched.spawn("a", iter([Charge(1.0, "m-0"), Sleep(1.0, "net_transfer")]))
        sched.run()
        summary = sched.utilization_report()["summary"]
        assert summary == {
            "makespan": pytest.approx(2.0),
            "machines": 1,
            "mean_cpu_busy_fraction": pytest.approx(0.5),
            "max_cpu_queue_depth": 1,
            # No link is modelled; the benchmark's tracer still reads both.
            "mean_link_busy_fraction": 0.0,
            "max_link_concurrency": 0,
        }

    def test_empty_schedule_reports_zeroes(self):
        report = Scheduler().utilization_report()
        assert report["cpu"] == {}
        assert report["summary"]["mean_cpu_busy_fraction"] == 0.0
        assert report["summary"]["max_link_concurrency"] == 0
