"""Windowed time series: the per-second history every registry series keeps.

Counters and histograms keep their last ``RING_SECONDS`` seconds beside
their cumulative values; the live views (``/debug/requests``, ``repro
top``, the SLO) are reads over that history.  Every write is stamped by
the registry's clock and every read takes ``now``, so these tests drive
time by hand.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.serve.loadgen import nearest_rank
from repro.serve.observability import ObservabilityPlane
from repro.serve.server import record_request
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MAX_SERIES,
    OVERFLOW,
    RING_SECONDS,
    MetricsRegistry,
    bucket_quantile,
)
from tests.telemetry.conftest import FakeClock


def registry_at(t: float = 0.0) -> tuple[MetricsRegistry, FakeClock]:
    clock = FakeClock(t)
    return MetricsRegistry(clock=clock), clock


def p(histogram, q: float, seconds: float, now: float) -> float | None:
    """Quantile ``q`` of the one series ``histogram`` holds, over a window."""
    (counts,) = histogram.window(seconds, now).values()
    return bucket_quantile(histogram.buckets, counts, q)


class TestNearestRank:
    """Raw samples exist only client-side: the load generator ranks them."""

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
    """A counter series' ring: sums over trailing whole seconds."""

    def test_add_and_total(self):
        reg, clock = registry_at(100.0)
        reg.counter("ops_total").inc(1.0)
        clock.t = 100.5
        reg.counter("ops_total").inc(2.0)
        assert reg.counter("ops_total").window(10, now=100.5) == {(): 3.0}

    def test_old_samples_fall_out(self):
        reg, _ = registry_at(100.0)
        ops = reg.counter("ops_total")
        ops.inc(5.0)
        assert ops.window(10, now=105.0) == {(): 5.0}
        # Past the window span, the sample has decayed.
        assert ops.window(10, now=111.0) == {(): 0.0}
        # The cumulative value never decays.
        assert ops.samples() == [((), 5.0)]

    def test_rate_is_total_over_span(self):
        reg, clock = registry_at()
        ops = reg.counter("ops_total")
        for i in range(20):
            clock.t = 200.0 + i * 0.5
            ops.inc()
        assert ops.window(10, now=209.5)[()] / 10 == pytest.approx(2.0)

    def test_slot_reuse_clears_stale_epoch(self):
        reg, clock = registry_at(0.1)
        ops = reg.counter("ops_total")
        ops.inc()
        # Same slot one full revolution later must not accumulate.
        clock.t = RING_SECONDS + 0.1
        ops.inc()
        assert ops.window(RING_SECONDS, now=clock.t) == {(): 1.0}

    def test_a_late_write_counts_in_its_own_second(self):
        """A write stamped before the latest one (its thread read the clock
        first, then waited for the lock) lands in the second it was stamped."""
        reg, clock = registry_at(100.5)
        ops = reg.counter("ops_total")
        ops.inc()
        clock.t = 101.2
        ops.inc()
        clock.t = 100.9
        ops.inc()
        assert ops.window(1, now=100.9) == {(): 2.0}
        assert ops.window(1, now=101.5) == {(): 1.0}
        assert ops.window(10, now=101.5) == {(): 3.0}

    def test_idle_seconds_read_empty(self):
        reg, clock = registry_at(10.5)
        ops = reg.counter("ops_total")
        ops.inc()
        clock.t = 400.5
        ops.inc()
        assert ops.window(60, now=399.0) == {(): 0.0}
        assert ops.window(RING_SECONDS, now=400.5) == {(): 2.0}
        assert ops.window(1, now=700.0) == {(): 0.0}

    def test_validation(self):
        ops = MetricsRegistry().counter("ops_total")
        for seconds in (0, 0.5, RING_SECONDS + 1):
            with pytest.raises(ValueError):
                ops.window(seconds)

    def test_thread_safety_totals_conserved(self):
        """More threads than cores, switching often: no update is lost from
        a cumulative value or from its ring."""
        reg, _ = registry_at(30.0)
        ops, lat = reg.counter("ops_total"), reg.histogram("lat_seconds")

        def worker():
            for _ in range(1000):
                ops.inc()
                lat.observe(0.01)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert ops.window(60, now=30.0) == {(): 8000.0}
        assert ops.samples() == [((), 8000.0)]
        (counts,) = lat.window(60, now=30.0).values()
        assert sum(counts) == lat.snapshot()["count"] == 8000


class TestWindowedCounter:
    """``/debug/requests``' 1 s / 10 s / 60 s rates over the served requests."""

    def test_canonical_window_labels(self, clocked_telemetry):
        record_request("cone", 200, 0.01)
        snap = ObservabilityPlane().requests_snapshot()
        assert set(snap["requests"]) == {"rate_1s", "rate_10s", "rate_60s", "total"}
        assert set(snap["routes"]["cone"]) == {"1s", "10s", "60s"}

    def test_rates_reflect_recency(self, clocked_telemetry):
        # 60 requests spread over the last minute, 1/s, read the second after.
        for i in range(60):
            clocked_telemetry.t = 1000.0 + i
            record_request("cone", 200, 0.01)
        clocked_telemetry.t = 1060.0
        rates = ObservabilityPlane().requests_snapshot()["requests"]
        assert rates["rate_60s"] == pytest.approx(1.0)
        assert rates["rate_10s"] == pytest.approx(1.0)
        assert rates["total"] == 60.0

    def test_steady_traffic_reads_true_partway_through_a_second(self, clocked_telemetry):
        """A rate counts whole seconds only, so 1/s reads 1/s at any phase:
        before and after the current second's request alike."""
        plane = ObservabilityPlane()
        for second in range(1000, 1030):
            for now in (second + 0.1, second + 0.3, second + 0.9):
                clocked_telemetry.t = now
                if now == second + 0.3:
                    record_request("cone", 200, 0.01)
                elif second >= 1010:
                    rates = plane.requests_snapshot()["requests"]
                    assert rates["rate_1s"] == pytest.approx(1.0)
                    assert rates["rate_10s"] == pytest.approx(1.0)

    def test_burst_visible_in_short_window_only(self, clocked_telemetry):
        clocked_telemetry.t = 500.0
        for _ in range(100):
            record_request("cone", 200, 0.01)
        clocked_telemetry.t = 501.0
        rates = ObservabilityPlane().requests_snapshot()["requests"]
        assert rates["rate_1s"] == pytest.approx(100.0)
        assert rates["rate_60s"] == pytest.approx(100.0 / 60.0)

    def test_snapshot_keys(self, clocked_telemetry):
        clocked_telemetry.t = 10.0
        record_request("cone", 200, 0.01)
        snap = ObservabilityPlane().requests_snapshot()["requests"]
        assert snap["total"] == 1.0
        assert "rate_1s" in snap and "rate_10s" in snap and "rate_60s" in snap


class TestLatencyWindow:
    """Windowed quantiles: the histogram's bucket quantile over a window."""

    def test_quantiles_over_uniform_samples(self):
        reg, _ = registry_at(100.0)
        h = reg.histogram("lat_seconds", buckets=range(1, 101))
        for i in range(1, 101):
            h.observe(float(i))
        assert p(h, 50, 60, now=100.0) == 50.0
        assert p(h, 99, 60, now=100.0) == 99.0

    def test_decay_drops_old_seconds(self):
        reg, clock = registry_at(100.0)
        h = reg.histogram("lat_seconds", buckets=(1.0, 99.0))
        h.observe(99.0)
        clock.t = 109.0
        h.observe(1.0)
        # Both inside the 10 s window.
        assert p(h, 99, 10, now=109.0) == 99.0
        # The old second has fallen out.
        assert p(h, 99, 10, now=112.0) == 1.0

    def test_empty_window_is_nan(self, clocked_telemetry):
        """An empty window has no quantile: ``null`` on ``/debug/requests``."""
        clocked_telemetry.t = 5.0
        latency = ObservabilityPlane().requests_snapshot()["latency"]
        assert latency == {"p50": None, "p95": None, "p99": None, "window_s": 60.0}

    def test_reservoir_cap_bounds_memory(self):
        """A second's observations all count, in a ring whose size is fixed."""
        reg, _ = registry_at(50.0)
        h = reg.histogram("lat_seconds")
        h.observe(0.001)
        (ring,) = h._rings.values()
        size = sys.getsizeof(ring.values)
        for i in range(1000):
            h.observe(float(i) / 1000.0)
        assert sys.getsizeof(ring.values) == size
        assert size <= (RING_SECONDS + 2) * 8 * (len(DEFAULT_BUCKETS) + 1) + 256
        (counts,) = h.window(10, now=50.0).values()
        assert sum(counts) == 1001

    def test_sub_window_query(self):
        reg, clock = registry_at(10.0)
        h = reg.histogram("lat_seconds", buckets=(1.0, 100.0))
        h.observe(100.0)
        clock.t = 40.0
        h.observe(1.0)
        assert p(h, 99, 5, now=40.0) == 1.0
        assert p(h, 99, 60, now=40.0) == 100.0

    def test_quantiles_dict(self, clocked_telemetry):
        clocked_telemetry.t = 5.0
        for i in range(1, 101):
            record_request("cone", 200, float(i) / 1000.0, ObservabilityPlane())
        q = ObservabilityPlane().requests_snapshot()["latency"]
        assert set(q) == {"p50", "p95", "p99", "window_s"}
        assert q["p50"] == pytest.approx(0.050)

    def test_deterministic_reservoir(self):
        """The same writes at the same clock read the same, whatever the
        time is when ``now=`` reads them."""
        a, clock_a = registry_at(3.0)
        b, clock_b = registry_at(3.0)
        for i in range(100):
            a.histogram("lat_seconds").observe(float(i) / 100.0)
            b.histogram("lat_seconds").observe(float(i) / 100.0)
        clock_a.t, clock_b.t = 9.0, 1000.0
        assert a.histogram("lat_seconds").window(10, now=3.0) == b.histogram(
            "lat_seconds"
        ).window(10, now=3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("lat_seconds").window(0.5)


class TestLabelledWindows:
    """Per-label windows, and the cardinality bound of every family."""

    def test_per_label_rates(self, clocked_telemetry):
        clocked_telemetry.t = 10.0
        plane = ObservabilityPlane()
        for tenant in ("alice", "alice", "bob"):
            record_request("cone", 200, 0.01, plane, tenant=tenant)
        clocked_telemetry.t = 11.0
        tenants = plane.requests_snapshot()["tenants"]
        assert set(tenants) == {"alice", "bob"}
        assert tenants["alice"]["1s"] == pytest.approx(2.0)
        assert tenants["bob"]["10s"] == pytest.approx(0.1)

    def test_cardinality_cap_overflows(self):
        reg, _ = registry_at(5.0)
        tenants = reg.counter("tenant_requests_total")
        for i in range(MAX_SERIES + 10):
            tenants.inc(tenant=f"tenant{i}")
        labels = dict(tenants.samples())
        assert len(labels) == MAX_SERIES + 1  # the cap + __other__
        assert labels[(("tenant", OVERFLOW),)] == 10.0
        # Every event is accounted for somewhere, in the windows too.
        assert sum(labels.values()) == MAX_SERIES + 10
        assert sum(tenants.window(1, now=5.0).values()) == MAX_SERIES + 10
