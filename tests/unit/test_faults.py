"""Unit tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro import wire
from repro.errors import MachineCrashedError, NetworkError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashMachine,
    Drop,
    FaultPlan,
    FaultRule,
    MessageMatch,
)
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng


def make_injector(plan, machines=None, meter=None, seed=7):
    return FaultInjector(
        plan=plan,
        rng=DeterministicRng(seed).child("faults"),
        machines=machines or {},
        meter=meter,
    )


def envelope(msg_type):
    return wire.encode({"t": msg_type, "body": b"x"})


class TestMessageMatch:
    def test_wildcards_match_everything(self):
        match = MessageMatch()
        assert match.matches("a", "b/me", "la_hello", "request")
        assert match.matches("b/me", "a", None, "response")

    def test_each_field_constrains(self):
        match = MessageMatch(src="a", dst="b/me", msg_type="ra_rec", direction="request")
        assert match.matches("a", "b/me", "ra_rec", "request")
        assert not match.matches("c", "b/me", "ra_rec", "request")
        assert not match.matches("a", "b/rote", "ra_rec", "request")
        assert not match.matches("a", "b/me", "la_rec", "request")
        assert not match.matches("a", "b/me", "ra_rec", "response")

    def test_service_matches_destination_service(self):
        match = MessageMatch(service="me")
        assert match.matches("a", "b/me", None, "request")
        assert not match.matches("a", "b/rote", None, "request")


class TestInjectorRules:
    def test_nth_counts_matching_occurrences(self):
        plan = FaultPlan().drop(msg_type="ra_rec", nth=1)
        injector = make_injector(plan)
        # first ra_rec passes, second is dropped, third passes (max_triggers=1)
        assert injector.on_message("a", "b/me", envelope("ra_rec"), "request") is not None
        assert injector.on_message("a", "b/me", envelope("ra_rec"), "request") is None
        assert injector.on_message("a", "b/me", envelope("ra_rec"), "request") is not None
        assert len(injector.fired) == 1
        assert injector.fired[0].seq == 1

    def test_non_matching_messages_do_not_advance_nth(self):
        plan = FaultPlan().drop(msg_type="ra_rec", nth=0)
        injector = make_injector(plan)
        assert injector.on_message("a", "b/me", envelope("la_hello"), "request") is not None
        assert injector.on_message("a", "b/me", envelope("ra_rec"), "request") is None

    def test_trace_records_every_leg(self):
        injector = make_injector(FaultPlan())
        injector.on_message("a", "b/me", envelope("la_hello"), "request")
        injector.on_message("b/me", "a", b"\x00raw", "response")
        assert [m.seq for m in injector.trace] == [0, 1]
        assert injector.trace[0].msg_type == "la_hello"
        assert injector.trace[1].msg_type is None  # undecodable payload
        assert injector.trace[1].direction == "response"

    def test_determinism_same_seed_same_corruption(self):
        payload = envelope("la_msg1")
        first = make_injector(FaultPlan().corrupt(), seed=11).on_message(
            "a", "b/me", payload, "request"
        )
        second = make_injector(FaultPlan().corrupt(), seed=11).on_message(
            "a", "b/me", payload, "request"
        )
        assert first == second
        assert first != payload

    def test_corrupt_always_changes_payload(self):
        payload = envelope("la_msg1")
        for seed in range(5):
            mutated = make_injector(FaultPlan().corrupt(), seed=seed).on_message(
                "a", "b/me", payload, "request"
            )
            assert mutated != payload
            assert len(mutated) == len(payload)

    def test_delay_charges_the_sim_clock(self, charge_log):
        meter = CostMeter(
            model=CostModel(), clock=VirtualClock(), rng=DeterministicRng(3)
        )
        before = meter.now
        injector = make_injector(FaultPlan().delay(2.5), meter=meter)
        with meter.recording(charge_log):
            delivered = injector.on_message(
                "a", "b/me", envelope("la_hello"), "request"
            )
            assert meter.now == pytest.approx(before + 2.5)
        assert delivered is not None  # delayed, not dropped
        assert ("fault_delay", 2.5) in charge_log.charges

    def test_duplicate_flags_request_redelivery(self):
        injector = make_injector(FaultPlan().duplicate(direction="request"))
        injector.on_message("a", "b/me", envelope("la_hello"), "request")
        assert injector.wants_duplicate("a", "b/me", "request")
        # the flag is consumed, and never set for responses
        assert not injector.wants_duplicate("a", "b/me", "request")
        assert not injector.wants_duplicate("b/me", "a", "response")


class TestCrashAction:
    def test_crash_kills_machine_and_fails_inflight_exchange(self):
        crashed = []

        class FakeMachine:
            def crash(self):
                crashed.append("m-a")

        plan = FaultPlan().crash_machine("m-a")
        injector = make_injector(plan, machines={"m-a": FakeMachine()})
        with pytest.raises(MachineCrashedError):
            injector.on_message("m-a", "m-b/me", envelope("ra_msg1"), "request")
        assert crashed == ["m-a"]

    def test_crash_of_bystander_machine_lets_message_through(self):
        crashed = []

        class FakeMachine:
            def crash(self):
                crashed.append("m-c")

        plan = FaultPlan().crash_machine("m-c")
        injector = make_injector(plan, machines={"m-c": FakeMachine()})
        delivered = injector.on_message("m-a", "m-b/me", envelope("ra_msg1"), "request")
        assert delivered is not None
        assert crashed == ["m-c"]

    def test_machine_crashed_error_is_transient_network_error(self):
        assert issubclass(MachineCrashedError, NetworkError)


class TestHookAction:
    def test_hook_controls_payload_fate(self):
        seen = []

        def tap(src, dst, payload, direction):
            seen.append((src, dst, direction))
            return None  # drop

        injector = make_injector(FaultPlan().hook(tap, msg_type="done_notice"))
        assert injector.on_message("b", "a/me", envelope("done_notice"), "request") is None
        assert seen == [("b", "a/me", "request")]

    def test_plan_is_composable(self):
        plan = (
            FaultPlan()
            .drop(msg_type="ra_rec", nth=1)
            .crash_machine("m-a", msg_type="done_notice")
        )
        assert len(plan.rules) == 2
        assert isinstance(plan.rules[0], FaultRule)
        assert isinstance(plan.rules[0].action, Drop)
        assert isinstance(plan.rules[1].action, CrashMachine)
