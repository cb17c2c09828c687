"""SLO burn-rate tracker: multi-window availability and latency budgets."""

from __future__ import annotations

import pytest

from repro.telemetry.slo import FAST_BURN, SLOW_BURN, Objective, SLOTracker


class TestObjective:
    def test_no_traffic_is_ok(self):
        obj = Objective("availability", budget=0.001)
        snap = obj.snapshot(now=100.0)
        assert snap["state"] == "ok"
        assert snap["burn_short"] == 0.0
        assert snap["budget_remaining"] == 1.0

    def test_within_budget_is_ok(self):
        obj = Objective("availability", budget=0.01, short_window_s=60, long_window_s=600)
        # 1000 requests, 1 bad: 0.1% bad vs 1% budget → burn 0.1.
        for i in range(1000):
            obj.record(good=(i != 0), now=100.0)
        snap = obj.snapshot(now=100.0)
        assert snap["state"] == "ok"
        assert snap["burn_long"] == pytest.approx(0.1)

    def test_sustained_burn_pages(self):
        obj = Objective("availability", budget=0.001, short_window_s=60, long_window_s=600)
        # 10% failure rate → burn 100 ≫ 14.4 in both windows.
        for i in range(1000):
            obj.record(good=(i % 10 != 0), now=500.0)
        snap = obj.snapshot(now=500.0)
        assert snap["burn_short"] >= FAST_BURN
        assert snap["burn_long"] >= FAST_BURN
        assert snap["state"] == "page"

    def test_short_spike_alone_does_not_page(self):
        obj = Objective("availability", budget=0.01, short_window_s=10, long_window_s=600)
        # Long window dominated by healthy traffic still inside its span.
        for _ in range(10000):
            obj.record(good=True, now=100.0)
        # Fresh burst of failures saturating the short window only.
        for _ in range(50):
            obj.record(good=False, now=650.0)
        snap = obj.snapshot(now=650.0)
        assert snap["burn_short"] >= FAST_BURN
        # Long window dilutes the burst below the slow threshold, so the
        # two-window rule suppresses the alert.
        assert snap["burn_long"] < SLOW_BURN
        assert snap["state"] == "ok"

    def test_burn_clears_as_windows_decay(self):
        obj = Objective("availability", budget=0.001, short_window_s=10, long_window_s=60)
        for _ in range(100):
            obj.record(good=False, now=100.0)
        assert obj.snapshot(now=100.0)["state"] == "page"
        # After the short window decays the failures, paging stops.
        assert obj.snapshot(now=115.0)["state"] == "ok"

    def test_budget_remaining_clamped(self):
        obj = Objective("availability", budget=0.001)
        for _ in range(100):
            obj.record(good=False, now=50.0)
        snap = obj.snapshot(now=50.0)
        assert snap["budget_remaining"] == 0.0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            Objective("x", budget=0.0)
        with pytest.raises(ValueError):
            Objective("x", budget=1.0)


class TestSLOTracker:
    def test_snapshot_shape(self):
        slo = SLOTracker()
        slo.record(ok=True, latency_s=0.01, now=10.0)
        snap = slo.snapshot(now=10.0)
        assert snap["state"] == "ok"
        assert {o["objective"] for o in snap["objectives"]} == {
            "availability",
            "latency",
        }
        assert snap["latency_target_s"] == 0.5

    def test_slow_requests_burn_latency_budget(self):
        slo = SLOTracker(latency_target_s=0.1)
        for i in range(100):
            slo.record(ok=True, latency_s=5.0 if i % 2 == 0 else 0.01, now=50.0)
        snap = slo.snapshot(now=50.0)
        latency = next(o for o in snap["objectives"] if o["objective"] == "latency")
        assert latency["state"] == "page"
        availability = next(
            o for o in snap["objectives"] if o["objective"] == "availability"
        )
        assert availability["state"] == "ok"
        # Worst objective wins.
        assert snap["state"] == "page"

    def test_failures_do_not_double_count_latency(self):
        slo = SLOTracker(latency_target_s=0.1)
        slo.record(ok=False, latency_s=99.0, now=10.0)
        snap = slo.snapshot(now=10.0)
        latency = next(o for o in snap["objectives"] if o["objective"] == "latency")
        assert latency["events_long"] == 0

    def test_state_shortcut(self):
        slo = SLOTracker()
        for _ in range(100):
            slo.record(ok=False, now=20.0)
        assert slo.state(now=20.0) == "page"
