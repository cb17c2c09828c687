"""Trace-report helpers: node dedup, critical path, timeline, rendering."""

from __future__ import annotations

import pytest

from repro.telemetry.report import (
    critical_path,
    node_spans,
    render_report,
    slowest_spans,
    summarize,
)
from repro.telemetry.tracing import parse_trace_jsonl

from tests.telemetry.reference_trace import REFERENCE_TRACE_JSONL


def _node(span_id, node, start, end, deps=(), status="ok", attempts=1):
    return {
        "name": "condor.node",
        "trace": "t",
        "span": span_id,
        "parent": None,
        "start": start,
        "end": end,
        "dur": end - start,
        "status": status,
        "clock": "sim",
        "pid": 1,
        "attrs": {
            "node": node, "kind": "compute", "site": "p", "attempts": attempts,
            "deps": list(deps),
        },
    }


def test_node_spans_dedup_to_final_attempt():
    spans = [
        _node("s1", "j1", 0.0, 1.0, attempts=1, status="error"),
        _node("s2", "j1", 1.0, 3.0, attempts=2),
        _node("s3", "j2", 0.0, 2.0),
    ]
    nodes = node_spans(spans)
    assert len(nodes) == 2
    j1 = next(n for n in nodes if n["attrs"]["node"] == "j1")
    assert j1["span"] == "s2"  # latest end wins


def test_critical_path_follows_deps():
    # diamond: a -> (b fast | c slow) -> d
    spans = [
        _node("sa", "a", 0.0, 1.0),
        _node("sb", "b", 1.0, 2.0, deps=["a"]),
        _node("sc", "c", 1.0, 6.0, deps=["a"]),
        _node("sd", "d", 6.0, 7.0, deps=["b", "c"]),
    ]
    chain = [r["attrs"]["node"] for r in critical_path(spans)]
    assert chain == ["a", "c", "d"]


def test_critical_path_empty_without_nodes():
    assert critical_path([]) == []
    assert critical_path([{"name": "other", "span": "x", "attrs": {}}]) == []


def test_slowest_spans_orders_by_duration():
    spans = [_node("s1", "j1", 0.0, 5.0), _node("s2", "j2", 0.0, 1.0),
             _node("s3", "j3", 0.0, 9.0)]
    top = slowest_spans(spans, n=2)
    assert [r["attrs"]["node"] for r in top] == ["j3", "j1"]


def test_summarize_rollup():
    spans = parse_trace_jsonl(REFERENCE_TRACE_JSONL)
    summary = summarize(spans)
    assert summary["spans"] == 23
    assert summary["traces"] == 1
    assert summary["nodes"] == 4
    assert summary["nodes_by_kind"] == {"transfer": 1, "compute": 3}
    assert summary["critical_path_len"] == 3
    assert summary["node_makespan"] == pytest.approx(19.4)
    assert summary["errors"] == 0


def test_render_report_sections_and_content():
    spans = parse_trace_jsonl(REFERENCE_TRACE_JSONL)
    text = render_report(spans)
    for section in (
        "== trace summary ==",
        "== span hierarchy ==",
        "== workflow node timeline ==",
        "== critical path ==",
        "== top 5 slowest nodes ==",
    ):
        assert section in text
    assert "portal.run_analysis" in text
    assert "clock=sim" in text
    assert "dv-g1" in text
    # sibling aggregation keeps big traces readable
    assert "condor.node ×4" in text


def test_render_report_without_node_spans():
    spans = [
        {"name": "root", "trace": "t", "span": "s1", "parent": None,
         "start": 0.0, "end": 1.0, "dur": 1.0, "status": "ok",
         "clock": "wall", "pid": 1, "attrs": {}},
    ]
    text = render_report(spans)
    assert "no condor.node spans" in text
