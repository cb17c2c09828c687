"""SLO burn rates: multi-window availability and latency budgets, read
from the registry's per-second history."""

from __future__ import annotations

import pytest

from repro.serve.observability import ObservabilityPlane
from repro.serve.server import record_request
from repro.telemetry import get_registry
from repro.telemetry.metrics import MAX_SERIES, OVERFLOW, MetricsRegistry
from repro.telemetry.slo import (
    FAST_BURN,
    REQUESTS,
    SLOW_BURN,
    Objective,
    availability,
    slo_snapshot,
)
from tests.telemetry.conftest import FakeClock


class Requests:
    """Served requests, good or failed, written at a settable time."""

    def __init__(self) -> None:
        self.clock = FakeClock()
        self.registry = MetricsRegistry(clock=self.clock)

    def record(self, good: bool, now: float) -> None:
        self.clock.t = now
        self.registry.counter(REQUESTS).inc(route="cone", status="200" if good else "500")

    def snapshot(self, objective: Objective, now: float) -> dict:
        return objective.snapshot(availability(self.registry, now))


class TestObjective:
    def test_no_traffic_is_ok(self):
        snap = Requests().snapshot(Objective("availability", budget=0.001), now=100.0)
        assert snap["state"] == "ok"
        assert snap["burn_short"] == 0.0
        assert snap["budget_remaining"] == 1.0

    def test_within_budget_is_ok(self):
        obj = Objective("availability", budget=0.01, short_window_s=60, long_window_s=600)
        requests = Requests()
        # 1000 requests, 1 bad: 0.1% bad vs 1% budget → burn 0.1.
        for i in range(1000):
            requests.record(good=(i != 0), now=100.0)
        snap = requests.snapshot(obj, now=100.0)
        assert snap["state"] == "ok"
        assert snap["burn_long"] == pytest.approx(0.1)

    def test_sustained_burn_pages(self):
        obj = Objective("availability", budget=0.001, short_window_s=60, long_window_s=600)
        requests = Requests()
        # 10% failure rate → burn 100 ≫ 14.4 in both windows.
        for i in range(1000):
            requests.record(good=(i % 10 != 0), now=500.0)
        snap = requests.snapshot(obj, now=500.0)
        assert snap["burn_short"] >= FAST_BURN
        assert snap["burn_long"] >= FAST_BURN
        assert snap["state"] == "page"

    def test_short_spike_alone_does_not_page(self):
        obj = Objective("availability", budget=0.01, short_window_s=10, long_window_s=600)
        requests = Requests()
        # Long window dominated by healthy traffic still inside its span.
        for _ in range(10000):
            requests.record(good=True, now=100.0)
        # Fresh burst of failures saturating the short window only.
        for _ in range(50):
            requests.record(good=False, now=650.0)
        snap = requests.snapshot(obj, now=650.0)
        assert snap["burn_short"] >= FAST_BURN
        # Long window dilutes the burst below the slow threshold, so the
        # two-window rule suppresses the alert.
        assert snap["burn_long"] < SLOW_BURN
        assert snap["state"] == "ok"

    def test_burn_clears_as_windows_decay(self):
        obj = Objective("availability", budget=0.001, short_window_s=10, long_window_s=60)
        requests = Requests()
        for _ in range(100):
            requests.record(good=False, now=100.0)
        assert requests.snapshot(obj, now=100.0)["state"] == "page"
        # After the short window decays the failures, paging stops.
        assert requests.snapshot(obj, now=115.0)["state"] == "ok"

    def test_budget_remaining_clamped(self):
        requests = Requests()
        for _ in range(100):
            requests.record(good=False, now=50.0)
        snap = requests.snapshot(Objective("availability", budget=0.001), now=50.0)
        assert snap["budget_remaining"] == 0.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Objective("x", budget=0.0)
        with pytest.raises(ValueError):
            Objective("x", budget=1.0)


def served(clock: FakeClock, now: float, status: int, seconds: float, target: float = 0.5):
    """One request as the server writes it, through an enabled plane."""
    clock.t = now
    record_request("cone", status, seconds, ObservabilityPlane(latency_target_s=target))


class TestSLOTracker:
    """Both objectives over what the server writes (``record_request``)."""

    def test_snapshot_shape(self, clocked_telemetry):
        served(clocked_telemetry, 10.0, 200, 0.01)
        snap = slo_snapshot(get_registry(), 0.5, now=10.0)
        assert snap["state"] == "ok"
        assert {o["objective"] for o in snap["objectives"]} == {
            "availability",
            "latency",
        }
        assert snap["latency_target_s"] == 0.5

    def test_slow_requests_burn_latency_budget(self, clocked_telemetry):
        for i in range(100):
            served(clocked_telemetry, 50.0, 200, 5.0 if i % 2 == 0 else 0.01, target=0.1)
        snap = slo_snapshot(get_registry(), 0.1, now=50.0)
        latency = next(o for o in snap["objectives"] if o["objective"] == "latency")
        assert latency["state"] == "page"
        assert (latency["events_long"], latency["bad_long"]) == (100, 50)
        availability = next(
            o for o in snap["objectives"] if o["objective"] == "availability"
        )
        assert availability["state"] == "ok"
        # Worst objective wins.
        assert snap["state"] == "page"

    def test_failures_do_not_double_count_latency(self, clocked_telemetry):
        served(clocked_telemetry, 10.0, 500, 99.0, target=0.1)
        snap = slo_snapshot(get_registry(), 0.1, now=10.0)
        latency = next(o for o in snap["objectives"] if o["objective"] == "latency")
        assert latency["events_long"] == 0

    def test_state_shortcut(self, clocked_telemetry):
        for _ in range(100):
            served(clocked_telemetry, 20.0, 500, 0.01)
        assert slo_snapshot(get_registry(), 0.5, now=20.0)["state"] == "page"

    def test_a_target_between_default_bounds_is_counted_exactly(self, clocked_telemetry):
        served(clocked_telemetry, 10.0, 200, 0.3, target=0.3)  # at the target: good
        served(clocked_telemetry, 10.0, 200, 0.31, target=0.3)  # over it: bad
        snap = slo_snapshot(get_registry(), 0.3, now=10.0)
        latency = next(o for o in snap["objectives"] if o["objective"] == "latency")
        assert (latency["events_long"], latency["bad_long"]) == (2, 1)

    def test_a_failure_past_the_series_cap_still_burns_availability(self, clocked_telemetry):
        """An overflowing label set keeps its ``status``: a 500 on a label
        set first seen past the cap is still a failure."""
        clocked_telemetry.t = 10.0
        for i in range(MAX_SERIES + 5):
            record_request(f"route{i}", 200, 0.01)
        record_request("cone", 500, 0.01)
        requests = dict(get_registry().counter(REQUESTS).samples())
        assert requests[(("route", OVERFLOW), ("status", "500"))] == 1.0
        snap = slo_snapshot(get_registry(), 0.5, now=10.0)
        availability = next(o for o in snap["objectives"] if o["objective"] == "availability")
        assert (availability["events_short"], availability["bad_short"]) == (MAX_SERIES + 6, 1)
        assert availability["state"] != "ok"
        clocked_telemetry.t = 11.0
        assert ObservabilityPlane().requests_snapshot()["errors"]["total"] == 1.0
