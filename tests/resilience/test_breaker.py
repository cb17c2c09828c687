"""Tests for the circuit breaker and the shared site-health tracker."""

from __future__ import annotations

import pytest

from repro.resilience.breaker import BreakerState, CircuitBreaker, SiteHealthTracker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def breaker(threshold=3, recovery=60.0) -> tuple[CircuitBreaker, FakeClock]:
    clock = FakeClock()
    return (
        CircuitBreaker(
            failure_threshold=threshold, recovery_time_s=recovery, clock=clock
        ),
        clock,
    )


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(recovery_time_s=-1.0)

    def test_opens_after_consecutive_failures(self):
        b, _ = breaker(threshold=3)
        b.record_failure()
        b.record_failure()
        assert b.state is BreakerState.CLOSED and b.allows()
        b.record_failure()
        assert b.state is BreakerState.OPEN and not b.allows()

    def test_success_resets_failure_count(self):
        b, _ = breaker(threshold=2)
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state is BreakerState.CLOSED  # never two *consecutive* failures

    def test_cooldown_half_opens(self):
        b, clock = breaker(threshold=1, recovery=30.0)
        b.record_failure()
        assert not b.allows()
        clock.advance(29.9)
        assert not b.allows()
        clock.advance(0.2)
        assert b.state is BreakerState.HALF_OPEN and b.allows()

    def test_probe_success_closes(self):
        b, clock = breaker(threshold=1, recovery=10.0)
        b.record_failure()
        clock.advance(11.0)
        assert b.state is BreakerState.HALF_OPEN
        b.record_success()
        assert b.state is BreakerState.CLOSED

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        b, clock = breaker(threshold=1, recovery=10.0)
        b.record_failure()
        clock.advance(11.0)
        assert b.state is BreakerState.HALF_OPEN
        b.record_failure()
        assert b.state is BreakerState.OPEN
        clock.advance(9.0)
        assert not b.allows()  # cooldown restarted at the probe failure
        clock.advance(1.5)
        assert b.allows()

    def test_transitions_counted(self):
        b, clock = breaker(threshold=1, recovery=5.0)
        b.record_failure()  # closed -> open
        clock.advance(6.0)
        _ = b.state  # open -> half-open
        b.record_success()  # half-open -> closed
        assert b.transitions == 3


class TestSiteHealthTracker:
    def tracker(self, threshold=2, recovery=60.0) -> tuple[SiteHealthTracker, FakeClock]:
        clock = FakeClock()
        return (
            SiteHealthTracker(
                failure_threshold=threshold, recovery_time_s=recovery, clock=clock
            ),
            clock,
        )

    def test_unknown_sites_are_healthy(self):
        t, _ = self.tracker()
        assert t.available("never-seen")
        assert t.states() == {}

    def test_blacklist_after_threshold(self):
        t, _ = self.tracker(threshold=2)
        t.record_failure("uwisc")
        assert t.available("uwisc")
        t.record_failure("uwisc")
        assert not t.available("uwisc")
        assert t.states() == {"uwisc": "open"}

    def test_filter_available_preserves_order(self):
        t, _ = self.tracker(threshold=1)
        t.record_failure("fnal")
        assert t.filter_available(["isi", "fnal", "uwisc"]) == ["isi", "uwisc"]

    def test_states_snapshot(self):
        t, clock = self.tracker(threshold=1, recovery=10.0)
        t.record_failure("uwisc")
        t.record_success("isi")
        assert t.states() == {"isi": "closed", "uwisc": "open"}
        clock.advance(11.0)
        assert t.states()["uwisc"] == "half-open"
        t.record_success("uwisc")
        assert t.states()["uwisc"] == "closed"

    def test_steady_state_shortcuts_keep_breaker_semantics(self):
        """A success at a quiet site and a filter with nothing tripped skip
        the lock; every failure, reset, trip and recovery still counts."""
        t, clock = self.tracker(threshold=2, recovery=10.0)
        t.record_success("isi")
        t.record_success("isi")  # quiet: changes nothing
        t.record_failure("isi")
        t.record_success("isi")  # resets the count: not skipped
        t.record_failure("isi")
        assert t.filter_available(["isi", "fnal"]) == ["isi", "fnal"]
        t.record_failure("isi")
        assert t.filter_available(["isi", "fnal"]) == ["fnal"]
        clock.advance(11.0)
        t.record_success("isi")  # the half-open probe closes it
        assert t.filter_available(["isi", "fnal"]) == ["isi", "fnal"]
        t.record_failure("isi")
        assert t.available("isi") and t.states() == {"isi": "closed"}

    def test_breaker_telemetry(self, enabled_telemetry):
        t, _ = self.tracker(threshold=1)
        t.record_failure("uwisc")
        registry = enabled_telemetry.get_registry()
        transitions = registry.get("resilience_breaker_transitions_total")
        assert transitions is not None
        assert dict(transitions.samples())[(("site", "uwisc"), ("to", "open"))] == 1.0
        open_gauge = registry.get("resilience_breaker_open")
        assert open_gauge is not None
        assert dict(open_gauge.samples())[(("site", "uwisc"),)] == 1.0
