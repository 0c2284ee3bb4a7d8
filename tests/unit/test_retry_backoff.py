"""Retry policy: backoff schedule, sim-clock charges, error classification."""

import pytest

from repro.core.retry import NO_RETRY, RetryPolicy, call_with_retries
from repro.errors import (
    MigrationError,
    MigrationPendingError,
    ServiceUnavailableError,
    TransientError,
)
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostMeter, CostModel
from repro.sim.rng import DeterministicRng


def make_meter():
    return CostMeter(model=CostModel(), clock=VirtualClock(), rng=DeterministicRng(5))


def flaky(failures, exc=ServiceUnavailableError):
    """A callable that raises ``exc`` the first ``failures`` times."""
    state = {"calls": 0}

    def fn():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc(f"flaky failure {state['calls']}")
        return state["calls"]

    fn.state = state
    return fn


class TestDelaySchedule:
    def test_exponential_with_cap(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=3.0, max_delay=10.0)
        assert policy.delay_schedule() == [1.0, 3.0, 9.0, 10.0]

    def test_defaults(self):
        policy = RetryPolicy()
        schedule = policy.delay_schedule()
        assert len(schedule) == policy.max_attempts - 1
        assert schedule == sorted(schedule)  # monotonically non-decreasing

    def test_no_retry_has_empty_schedule(self):
        assert NO_RETRY.max_attempts == 1
        assert NO_RETRY.delay_schedule() == []


class TestCallWithRetries:
    def test_success_first_try_charges_nothing(self, charge_log):
        meter = make_meter()
        with meter.recording(charge_log):
            result, retries = call_with_retries(
                flaky(0), meter=meter, policy=RetryPolicy(max_attempts=3)
            )
            assert meter.now == 0.0
        assert (result, retries) == (1, 0)
        assert charge_log.charges == []

    def test_backoff_charges_match_delay_schedule(self, charge_log):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, multiplier=2.0, max_delay=10.0)
        meter = make_meter()
        with meter.recording(charge_log):
            result, retries = call_with_retries(flaky(3), meter=meter, policy=policy)
            assert meter.now == pytest.approx(sum(policy.delay_schedule()))
        assert (result, retries) == (4, 3)
        charged = [cost for label, cost in charge_log.charges if label == "retry_backoff"]
        assert charged == policy.delay_schedule() == [0.5, 1.0, 2.0]

    def test_partial_recovery_charges_prefix_of_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.5, multiplier=2.0, max_delay=10.0)
        meter = make_meter()
        result, retries = call_with_retries(flaky(1), meter=meter, policy=policy)
        assert (result, retries) == (2, 1)
        assert meter.clock.now == pytest.approx(0.5)

    def test_exhaustion_reraises_transient_error(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.1)
        meter = make_meter()
        fn = flaky(5)
        with pytest.raises(ServiceUnavailableError):
            call_with_retries(fn, meter=meter, policy=policy)
        assert fn.state["calls"] == 2  # both attempts consumed
        assert meter.clock.now == pytest.approx(0.1)  # one backoff charged

    def test_fatal_errors_are_not_retried(self):
        meter = make_meter()
        fn = flaky(5, exc=MigrationError)
        with pytest.raises(MigrationError):
            call_with_retries(fn, meter=meter, policy=RetryPolicy(max_attempts=5))
        assert fn.state["calls"] == 1  # no second attempt
        assert meter.clock.now == 0.0

    def test_migration_pending_is_retried_and_caught_as_migration_error(self):
        # The bridge class: retryable for dispatch, MigrationError for callers.
        assert issubclass(MigrationPendingError, TransientError)
        assert issubclass(MigrationPendingError, MigrationError)
        meter = make_meter()
        fn = flaky(1, exc=MigrationPendingError)
        result, retries = call_with_retries(
            fn, meter=meter, policy=RetryPolicy(max_attempts=2, base_delay=0.2)
        )
        assert (result, retries) == (2, 1)

    def test_no_retry_policy_is_single_shot(self):
        meter = make_meter()
        fn = flaky(1)
        with pytest.raises(ServiceUnavailableError):
            call_with_retries(fn, meter=meter, policy=NO_RETRY)
        assert fn.state["calls"] == 1
        assert meter.clock.now == 0.0

    def test_custom_label_appears_in_charges(self, charge_log):
        meter = make_meter()
        with meter.recording(charge_log):
            call_with_retries(
                flaky(1),
                meter=meter,
                policy=RetryPolicy(max_attempts=2, base_delay=0.3),
                label="me_exchange_backoff",
            )
        assert charge_log.charges == [("me_exchange_backoff", 0.3)]
