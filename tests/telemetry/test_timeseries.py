"""Windowed time-series: ring counters, windowed rates, latency quantiles."""

from __future__ import annotations

import math
import threading

import pytest

from repro.telemetry.timeseries import (
    LabelledWindows,
    LatencyWindow,
    RingCounter,
    WindowedCounter,
    nearest_rank,
)


class TestNearestRank:
    def test_empty_is_nan(self):
        assert math.isnan(nearest_rank([], 50))

    def test_single_sample(self):
        assert nearest_rank([7.0], 50) == 7.0
        assert nearest_rank([7.0], 99) == 7.0

    def test_percentiles_of_1_to_100(self):
        xs = [float(i) for i in range(1, 101)]
        assert nearest_rank(xs, 50) == 50.0
        assert nearest_rank(xs, 95) == 95.0
        assert nearest_rank(xs, 99) == 99.0
        assert nearest_rank(xs, 100) == 100.0

    def test_out_of_range_rejected(self):
        for q in (0, -1.0, 101):
            with pytest.raises(ValueError):
                nearest_rank([1.0], q)


class TestRingCounter:
    def test_add_and_total(self):
        ring = RingCounter(10.0, buckets=10)
        ring.add(1.0, now=100.0)
        ring.add(2.0, now=100.5)
        assert ring.total(now=100.5) == 3.0

    def test_old_samples_fall_out(self):
        ring = RingCounter(10.0, buckets=10)
        ring.add(5.0, now=100.0)
        assert ring.total(now=105.0) == 5.0
        # Past the window span, the sample has decayed.
        assert ring.total(now=111.0) == 0.0

    def test_rate_is_total_over_span(self):
        ring = RingCounter(10.0, buckets=10)
        for i in range(20):
            ring.add(1.0, now=200.0 + i * 0.5)
        assert ring.rate(now=209.5) == pytest.approx(2.0)

    def test_slot_reuse_clears_stale_epoch(self):
        ring = RingCounter(1.0, buckets=4)  # 0.25s resolution
        ring.add(1.0, now=0.1)
        # Same slot one full revolution later must not accumulate.
        ring.add(1.0, now=1.1)
        assert ring.total(now=1.1) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RingCounter(0.0)
        with pytest.raises(ValueError):
            RingCounter(1.0, buckets=0)

    def test_thread_safety_totals_conserved(self):
        ring = RingCounter(60.0, buckets=20)

        def worker():
            for _ in range(1000):
                ring.add(1.0, now=30.0)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ring.total(now=30.0) == 4000.0


class TestWindowedCounter:
    def test_canonical_window_labels(self):
        wc = WindowedCounter()
        assert set(wc.rates(now=0.0)) == {"1s", "10s", "60s"}

    def test_rates_reflect_recency(self):
        wc = WindowedCounter()
        # 60 events spread over the last minute, 1/s.
        for i in range(60):
            wc.add(now=1000.0 + i)
        rates = wc.rates(now=1059.0)
        # Ring buckets truncate at window edges: tolerate one bucket's worth.
        assert rates["60s"] == pytest.approx(1.0, rel=0.06)
        assert rates["10s"] == pytest.approx(1.0)
        assert wc.lifetime == 60.0

    def test_burst_visible_in_short_window_only(self):
        wc = WindowedCounter()
        for _ in range(100):
            wc.add(now=500.0)
        rates = wc.rates(now=500.0)
        assert rates["1s"] == pytest.approx(100.0)
        assert rates["60s"] == pytest.approx(100.0 / 60.0)

    def test_snapshot_keys(self):
        wc = WindowedCounter()
        wc.add(now=10.0)
        snap = wc.snapshot(now=10.0)
        assert snap["total"] == 1.0
        assert "rate_1s" in snap and "rate_10s" in snap and "rate_60s" in snap


class TestLatencyWindow:
    def test_quantiles_over_uniform_samples(self):
        lw = LatencyWindow(span_s=60.0, cap=256)
        for i in range(1, 101):
            lw.observe(float(i), now=100.0)
        assert lw.quantile(50, now=100.0) == 50.0
        assert lw.quantile(99, now=100.0) == 99.0

    def test_decay_drops_old_seconds(self):
        lw = LatencyWindow(span_s=10.0)
        lw.observe(99.0, now=100.0)
        lw.observe(1.0, now=109.0)
        # Both inside the 10 s window.
        assert lw.quantile(99, now=109.0) == 99.0
        # The old second has fallen out.
        assert lw.quantile(99, now=112.0) == 1.0

    def test_empty_window_is_nan(self):
        lw = LatencyWindow(span_s=10.0)
        assert math.isnan(lw.quantile(50, now=5.0))

    def test_reservoir_cap_bounds_memory(self):
        lw = LatencyWindow(span_s=10.0, cap=16)
        for i in range(1000):
            lw.observe(float(i), now=50.0)
        samples = lw.samples(now=50.0)
        assert len(samples) == 16
        assert lw.count(now=50.0) == 1000

    def test_sub_window_query(self):
        lw = LatencyWindow(span_s=60.0)
        lw.observe(100.0, now=10.0)
        lw.observe(1.0, now=40.0)
        assert lw.quantile(99, window_s=5.0, now=40.0) == 1.0
        assert lw.quantile(99, window_s=60.0, now=40.0) == 100.0

    def test_quantiles_dict(self):
        lw = LatencyWindow(span_s=10.0, cap=128)
        for i in range(1, 101):
            lw.observe(float(i) / 1000.0, now=5.0)
        q = lw.quantiles(now=5.0)
        assert set(q) == {"p50", "p95", "p99"}
        assert q["p50"] == pytest.approx(0.050)

    def test_deterministic_reservoir(self):
        a = LatencyWindow(span_s=10.0, cap=8, seed=42)
        b = LatencyWindow(span_s=10.0, cap=8, seed=42)
        for i in range(100):
            a.observe(float(i), now=3.0)
            b.observe(float(i), now=3.0)
        assert a.samples(now=3.0) == b.samples(now=3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyWindow(span_s=0.5)


class TestLabelledWindows:
    def test_per_label_rates(self):
        fam = LabelledWindows()
        fam.add("alice", now=10.0)
        fam.add("alice", now=10.0)
        fam.add("bob", now=10.0)
        totals = fam.totals()
        assert totals == {"alice": 2.0, "bob": 1.0}
        rates = fam.rates(now=10.0)
        assert rates["alice"]["1s"] == pytest.approx(2.0)

    def test_cardinality_cap_overflows(self):
        fam = LabelledWindows(max_series=3)
        for i in range(10):
            fam.add(f"tenant{i}", now=5.0)
        labels = fam.labels()
        assert len(labels) <= 4  # 3 real + __other__
        assert LabelledWindows.OVERFLOW in labels
        # Every event is accounted for somewhere.
        assert sum(fam.totals().values()) == 10.0
