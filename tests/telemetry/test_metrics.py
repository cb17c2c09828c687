"""Metrics registry: kinds, labels, concurrency, cross-process merge."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MAX_SERIES,
    OVERFLOW,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_basics():
    c = Counter("ops_total")
    c.inc()
    c.inc(2.5, kind="a")
    assert c.samples() == [((), 1.0), ((("kind", "a"),), 2.5)]
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(5, site="x")
    g.set(4, site="x")  # a gauge takes the latest value
    assert g.samples() == [((("site", "x"),), 4.0)]


def test_histogram_buckets_cumulative():
    h = Histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 5.0, 50.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == {"0.1": 1, "1.0": 2, "10.0": 3, "+Inf": 4}
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(55.55)


def test_registry_get_or_create_and_kind_conflict():
    reg = MetricsRegistry()
    c1 = reg.counter("x_total")
    c2 = reg.counter("x_total")
    assert c1 is c2
    with pytest.raises(ValueError):
        reg.gauge("x_total")
    assert reg.get("x_total") is c1
    assert reg.get("nope") is None


def test_registry_concurrent_increments():
    """8 threads x 1000 increments lose nothing (the lock contract)."""
    reg = MetricsRegistry()

    def hammer(k: int) -> None:
        for _ in range(1000):
            reg.counter("hits_total").inc(1, worker=str(k % 2))
            reg.histogram("t_seconds").observe(0.01)

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(hammer, range(8)))
    assert sum(value for _, value in reg.counter("hits_total").samples()) == 8000
    assert reg.histogram("t_seconds").snapshot()["count"] == 8000


def test_dump_merge_roundtrip():
    src = MetricsRegistry()
    src.counter("jobs_total").inc(3, state="done")
    src.gauge("load").set(0.7, site="a")
    src.histogram("d_seconds", buckets=(1.0, 5.0)).observe(2.0)

    dst = MetricsRegistry()
    dst.counter("jobs_total").inc(1, state="done")
    dst.histogram("d_seconds", buckets=(1.0, 5.0)).observe(0.5)
    dst.merge(src.dump())

    assert dst.counter("jobs_total").samples() == [((("state", "done"),), 4.0)]  # counters add
    assert dst.gauge("load").samples() == [((("site", "a"),), 0.7)]  # gauges take incoming
    snap = dst.histogram("d_seconds").snapshot()
    assert snap["count"] == 2
    assert snap["sum"] == pytest.approx(2.5)


def test_a_merge_adds_cumulative_values_and_no_history():
    src = MetricsRegistry()
    src.counter("jobs_total").inc(3, state="done")
    src.histogram("d_seconds", buckets=(1.0, 5.0)).observe(2.0)
    dst = MetricsRegistry()
    dst.merge(src.dump())
    dst.merge(src.dump())
    assert dst.counter("jobs_total").samples() == [((("state", "done"),), 6.0)]
    assert dst.histogram("d_seconds").snapshot()["count"] == 2
    assert dst.counter("jobs_total").window(600) == {}
    assert dst.histogram("d_seconds").window(600) == {}
    src.histogram("d_seconds").observe(0.5)  # the dump shares no list with the merge
    assert dst.histogram("d_seconds").snapshot()["count"] == 2


def test_merge_bucket_mismatch_rejected():
    src = MetricsRegistry()
    src.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
    dst = MetricsRegistry()
    dst.histogram("h_seconds", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        dst.merge(src.dump())


def test_default_buckets_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


def test_invalid_metric_name_rejected():
    with pytest.raises(ValueError):
        Counter("bad name")


def test_every_family_overflows_past_the_series_cap():
    reg = MetricsRegistry()
    for i in range(MAX_SERIES + 3):
        reg.counter("c_total").inc(user=f"u{i}", shard="s0")
        reg.gauge("g").set(float(i), user=f"u{i}")
        reg.histogram("h_seconds").observe(0.01, user=f"u{i}")
    other = (("shard", OVERFLOW), ("user", OVERFLOW))
    assert len(reg.counter("c_total").samples()) == MAX_SERIES + 1
    assert dict(reg.counter("c_total").samples())[other] == 3.0
    assert dict(reg.gauge("g").samples())[(("user", OVERFLOW),)] == MAX_SERIES + 2
    assert reg.histogram("h_seconds").snapshot(user=OVERFLOW)["count"] == 3
    assert len(reg.histogram("h_seconds").series_keys()) == MAX_SERIES + 1


def test_a_merge_overflows_past_the_series_cap():
    dst = MetricsRegistry()
    for shard in ("a", "b"):  # 40 users a shard: 80 label sets in all
        src = MetricsRegistry()
        for i in range(40):
            src.counter("c_total").inc(user=f"{shard}{i}")
            src.histogram("h_seconds").observe(0.01, user=f"{shard}{i}")
        dst.merge(src.dump())
    counts = dict(dst.counter("c_total").samples())
    assert len(counts) == MAX_SERIES + 1
    assert counts[(("user", OVERFLOW),)] == 80 - MAX_SERIES
    assert dst.histogram("h_seconds").snapshot(user=OVERFLOW)["count"] == 80 - MAX_SERIES
