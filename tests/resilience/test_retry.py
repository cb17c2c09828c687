"""Tests for the shared retry policy: backoff, jitter, deadline, classify."""

from __future__ import annotations

import pytest

from repro.core.errors import (
    PermanentServiceError,
    TransientServiceError,
)
from repro.resilience.retry import RetryPolicy, retry_call


class TestPolicyValidation:
    def test_max_attempts_floor(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)

    def test_jitter_bounds(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestDelaySchedule:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=2.0, jitter=0.0, max_delay_s=100.0)
        assert [policy.delay_for(k) for k in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]

    def test_max_delay_caps_ladder(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=10.0, jitter=0.0, max_delay_s=5.0)
        assert policy.delay_for(4) == 5.0

    def test_jitter_is_deterministic_per_label_and_attempt(self):
        policy = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=3)
        again = RetryPolicy(base_delay_s=1.0, jitter=0.5, seed=3)
        assert policy.delay_for(1, "sia-query/a2151") == again.delay_for(1, "sia-query/a2151")
        assert policy.delay_for(1, "one") != policy.delay_for(1, "two")
        assert policy.delay_for(1, "one") != policy.delay_for(2, "one")

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.1)
        for attempt in range(1, 20):
            assert 0.9 <= policy.delay_for(attempt, "x") < 1.1


class Flaky:
    """Callable failing the first ``n`` invocations."""

    def __init__(self, n: int, exc: Exception | None = None) -> None:
        self.n = n
        self.calls = 0
        self.exc = exc if exc is not None else TransientServiceError("hiccup")

    def __call__(self) -> str:
        self.calls += 1
        if self.calls <= self.n:
            raise self.exc
        return "payload"


class TestRetryCall:
    POLICY = RetryPolicy(max_attempts=3, base_delay_s=0.25, jitter=0.0, seed=1)

    def test_success_passes_through(self):
        fn = Flaky(0)
        assert retry_call(fn, self.POLICY) == "payload"
        assert fn.calls == 1

    def test_transient_failures_absorbed(self):
        fn = Flaky(2)
        assert retry_call(fn, self.POLICY) == "payload"
        assert fn.calls == 3

    def test_attempt_budget_exhausts(self):
        fn = Flaky(3)
        with pytest.raises(TransientServiceError):
            retry_call(fn, self.POLICY)
        assert fn.calls == 3

    def test_permanent_failure_propagates_immediately(self):
        fn = Flaky(5, exc=PermanentServiceError("gone"))
        with pytest.raises(PermanentServiceError):
            retry_call(fn, self.POLICY)
        assert fn.calls == 1

    def test_single_attempt_policy_is_bare_call(self):
        fn = Flaky(1)
        with pytest.raises(TransientServiceError):
            retry_call(fn, RetryPolicy(max_attempts=1))
        assert fn.calls == 1

    def test_deadline_abandons_ladder(self):
        # delays: 1.0, 2.0 — the second retry would exceed the 1.5 s budget.
        policy = RetryPolicy(
            max_attempts=5, base_delay_s=1.0, jitter=0.0, deadline_s=1.5, seed=1
        )
        fn = Flaky(10)
        with pytest.raises(TransientServiceError):
            retry_call(fn, policy)
        assert fn.calls == 2

    def test_on_backoff_sees_each_retry(self):
        events: list[tuple[int, float, str]] = []
        fn = Flaky(2)
        retry_call(
            fn,
            self.POLICY,
            label="probe",
            on_backoff=lambda a, d, e: events.append((a, d, type(e).__name__)),
        )
        assert [a for a, _, _ in events] == [1, 2]
        assert [d for _, d, _ in events] == [0.25, 0.5]
        assert all(kind == "TransientServiceError" for _, _, kind in events)

    def test_sleep_hook_serves_the_delay(self):
        slept: list[float] = []
        retry_call(Flaky(2), self.POLICY, sleep=slept.append)
        assert slept == [0.25, 0.5]

    def test_custom_classifier(self):
        fn = Flaky(1, exc=KeyError("odd"))
        assert (
            retry_call(fn, self.POLICY, classify=lambda e: isinstance(e, KeyError))
            == "payload"
        )
        assert fn.calls == 2
