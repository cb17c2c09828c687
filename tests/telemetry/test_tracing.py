"""Span API: nesting, propagation, disabled no-op, JSONL round-trip."""

from __future__ import annotations

import contextvars
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import telemetry
from repro.telemetry.tracing import (
    Tracer,
    load_trace_jsonl,
    make_record,
    new_span_id,
    parse_trace_jsonl,
)


def test_disabled_trace_span_is_shared_noop():
    telemetry.disable()
    a = telemetry.trace_span("x")
    b = telemetry.trace_span("y", k=1)
    assert a is b  # one shared handle, no allocation per call
    with a as span:
        span.set(anything="goes")
    assert len(telemetry.get_tracer()) == 0 or telemetry.get_tracer() is not None


def test_span_nesting_parent_ids(enabled_telemetry):
    with telemetry.trace_span("outer") as outer:
        with telemetry.trace_span("middle"):
            with telemetry.trace_span("inner"):
                pass
    spans = {s["name"]: s for s in telemetry.get_tracer().spans()}
    assert set(spans) == {"outer", "middle", "inner"}
    assert spans["outer"]["parent"] is None
    assert spans["middle"]["parent"] == spans["outer"]["span"]
    assert spans["inner"]["parent"] == spans["middle"]["span"]
    assert len({s["trace"] for s in spans.values()}) == 1
    assert outer.span_id == spans["outer"]["span"]


def test_sibling_spans_share_parent(enabled_telemetry):
    with telemetry.trace_span("root"):
        with telemetry.trace_span("a"):
            pass
        with telemetry.trace_span("b"):
            pass
    spans = {s["name"]: s for s in telemetry.get_tracer().spans()}
    assert spans["a"]["parent"] == spans["root"]["span"]
    assert spans["b"]["parent"] == spans["root"]["span"]


def test_exception_marks_span_error(enabled_telemetry):
    with pytest.raises(RuntimeError):
        with telemetry.trace_span("boom"):
            raise RuntimeError("kaput")
    rec = telemetry.get_tracer().spans()[-1]
    assert rec["status"] == "error"
    assert "kaput" in rec["attrs"]["error"]


def test_thread_propagation_via_copy_context(enabled_telemetry):
    """copy_context() per submission parents worker spans correctly."""

    def work(i: int) -> None:
        with telemetry.trace_span("worker", i=i):
            pass

    with telemetry.trace_span("driver") as driver:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, work, i) for i in range(8)
            ]
            for f in futures:
                f.result()
    spans = telemetry.get_tracer().spans()
    workers = [s for s in spans if s["name"] == "worker"]
    assert len(workers) == 8
    assert all(s["parent"] == driver.span_id for s in workers)
    assert all(s["trace"] == driver.trace_id for s in workers)


def test_jsonl_roundtrip(tmp_path, enabled_telemetry):
    with telemetry.trace_span("a", n=3):
        with telemetry.trace_span("b"):
            pass
    path = tmp_path / "trace.jsonl"
    n = telemetry.get_tracer().export_jsonl(path)
    assert n == 2
    loaded = load_trace_jsonl(path)
    assert loaded == telemetry.get_tracer().spans()
    # every line is standalone JSON
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert all(isinstance(json.loads(line), dict) for line in lines)


def test_parse_trace_jsonl_rejects_garbage():
    with pytest.raises(ValueError):
        parse_trace_jsonl("not json\n")
    with pytest.raises(ValueError):
        parse_trace_jsonl('{"no": "span keys"}\n')


def test_make_record_schema():
    rec = make_record("n", "t1", new_span_id(), None, 1.0, 2.5, attrs={"k": "v"})
    assert set(rec) == {
        "name", "trace", "span", "parent", "start", "end", "dur",
        "status", "clock", "pid", "attrs",
    }
    assert rec["dur"] == pytest.approx(1.5)
    assert rec["clock"] == "wall"


def test_tracer_thread_safety_smoke():
    tracer = Tracer()

    def add_many(k: int) -> None:
        for i in range(200):
            tracer.add(make_record(f"s{k}", "t", new_span_id(), None, 0.0, 1.0))

    with ThreadPoolExecutor(max_workers=8) as pool:
        list(pool.map(add_many, range(8)))
    assert len(tracer) == 1600
