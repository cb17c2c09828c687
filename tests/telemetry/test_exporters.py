"""Exporter golden tests: Prometheus text format and the strict parser."""

from __future__ import annotations

import json

import pytest

from repro.telemetry.exporters import (
    parse_prometheus_text,
    to_json,
    to_prometheus_text,
)
from repro.telemetry.metrics import MetricsRegistry


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("workflow_nodes_total").inc(
        7, state="succeeded"
    )
    reg.counter("workflow_nodes_total").inc(1, state="failed")
    reg.gauge("pool_busy_slots").set(3, site="pool-a")
    h = reg.histogram("galmorph_seconds", buckets=(0.01, 0.1, 1.0))
    h.observe(0.005)
    h.observe(0.05)
    h.observe(5.0)
    return reg


GOLDEN = """\
# TYPE galmorph_seconds histogram
galmorph_seconds_bucket{le="0.01"} 1
galmorph_seconds_bucket{le="0.1"} 2
galmorph_seconds_bucket{le="1"} 2
galmorph_seconds_bucket{le="+Inf"} 3
galmorph_seconds_sum 5.055
galmorph_seconds_count 3
# TYPE pool_busy_slots gauge
pool_busy_slots{site="pool-a"} 3
# TYPE workflow_nodes_total counter
workflow_nodes_total{state="failed"} 1
workflow_nodes_total{state="succeeded"} 7
"""


def test_prometheus_text_golden():
    assert to_prometheus_text(_sample_registry()) == GOLDEN


def test_prometheus_text_parses_back():
    text = to_prometheus_text(_sample_registry())
    samples = parse_prometheus_text(text)
    assert samples["workflow_nodes_total"] == [
        ({"state": "failed"}, 1.0),
        ({"state": "succeeded"}, 7.0),
    ]
    assert ({"le": "+Inf"}, 3.0) in samples["galmorph_seconds_bucket"]
    assert samples["galmorph_seconds_count"] == [({}, 3.0)]


def test_prometheus_label_escaping_roundtrip():
    reg = MetricsRegistry()
    tricky = 'A "quoted" back\\slash\nnewline'
    reg.counter("odd_total").inc(1, label=tricky)
    samples = parse_prometheus_text(to_prometheus_text(reg))
    assert samples["odd_total"] == [({"label": tricky}, 1.0)]


def test_empty_counter_renders_zero_sample():
    reg = MetricsRegistry()
    reg.counter("quiet_total")
    text = to_prometheus_text(reg)
    assert "quiet_total 0" in text
    assert parse_prometheus_text(text)["quiet_total"] == [({}, 0.0)]


def test_parser_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_prometheus_text("this is not a sample\n")
    with pytest.raises(ValueError):
        parse_prometheus_text('ok_total{bad labels} 1\n')
    with pytest.raises(ValueError):
        parse_prometheus_text("# BOGUS comment\n")


def test_json_export_shape():
    doc = json.loads(to_json(_sample_registry()))
    assert doc["workflow_nodes_total"]["kind"] == "counter"
    series = doc["workflow_nodes_total"]["series"]
    assert {"labels": {"state": "succeeded"}, "value": 7.0} in series
    hist = doc["galmorph_seconds"]
    assert hist["kind"] == "histogram"
    assert hist["series"][0]["count"] == 3
    assert hist["series"][0]["buckets"]["+Inf"] == 3
