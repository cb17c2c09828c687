"""Flight recorder: bounded retention of watched request traces."""

from __future__ import annotations

import json

from repro import telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.tracing import Tracer, make_record


def span_for(trace_id: str, name: str = "serve.request", **attrs) -> dict:
    return make_record(name, trace_id, f"{trace_id}-s1", None, 0.0, 0.01, attrs=attrs)


class TestWatchAndFinish:
    def test_only_watched_traces_collected(self):
        tracer = Tracer()
        rec = FlightRecorder()
        rec.attach(tracer)
        rec.watch("t-watched")
        tracer.add(span_for("t-watched"))
        tracer.add(span_for("t-ignored"))
        entry = rec.finish("t-watched", status="ok")
        assert entry is not None
        assert len(entry["spans"]) == 1
        assert rec.get("t-ignored") is None

    def test_finish_unwatched_returns_none(self):
        rec = FlightRecorder()
        assert rec.finish("t-unknown") is None

    def test_meta_retained(self):
        tracer = Tracer()
        rec = FlightRecorder()
        rec.attach(tracer)
        rec.watch("t1")
        entry = rec.finish("t1", status="ok", meta={"path": "/cone", "status": 200})
        assert entry["meta"]["path"] == "/cone"

    def test_open_trace_visible_via_get(self):
        tracer = Tracer()
        rec = FlightRecorder()
        rec.attach(tracer)
        rec.watch("t-open")
        tracer.add(span_for("t-open"))
        entry = rec.get("t-open")
        assert entry["status"] == "open"
        assert len(entry["spans"]) == 1


class TestBoundedRetention:
    def test_completed_ring_evicts_oldest(self):
        rec = FlightRecorder(max_completed=3)
        for i in range(5):
            rec.watch(f"t{i}")
            rec.finish(f"t{i}", status="ok")
        assert rec.get("t0") is None
        assert rec.get("t1") is None
        assert rec.get("t4") is not None
        assert rec.stats()["completed"] == 3

    def test_error_traces_survive_healthy_churn(self):
        rec = FlightRecorder(max_completed=2, max_errors=16)
        rec.watch("t-err")
        rec.finish("t-err", status="error")
        for i in range(10):
            rec.watch(f"t-ok{i}")
            rec.finish(f"t-ok{i}", status="ok")
        assert rec.get("t-err")["status"] == "error"

    def test_shed_goes_to_error_ring(self):
        rec = FlightRecorder(max_completed=1)
        rec.watch("t-shed")
        rec.finish("t-shed", status="shed")
        assert rec.stats()["errors"] == 1

    def test_per_trace_span_cap(self):
        tracer = Tracer()
        rec = FlightRecorder(max_spans_per_trace=5)
        rec.attach(tracer)
        rec.watch("t-big")
        for _ in range(20):
            tracer.add(span_for("t-big"))
        entry = rec.finish("t-big")
        assert len(entry["spans"]) == 5
        assert entry["dropped_spans"] == 15


class TestDump:
    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        rec = FlightRecorder()
        rec.attach(tracer)
        for i, status in enumerate(["ok", "error", "ok"]):
            tid = f"t{i}"
            rec.watch(tid)
            tracer.add(span_for(tid))
            rec.finish(tid, status=status, meta={"i": i})
        out = tmp_path / "flight.jsonl"
        n = rec.dump(out)
        assert n == 3
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json.loads(line) for line in lines]
        statuses = sorted(p["status"] for p in parsed)
        assert statuses == ["error", "ok", "ok"]
        for p in parsed:
            assert p["spans"] and p["spans"][0]["trace"] == p["trace"]

    def test_entries_errors_first(self):
        rec = FlightRecorder()
        rec.watch("t-ok")
        rec.finish("t-ok", status="ok")
        rec.watch("t-err")
        rec.finish("t-err", status="error")
        entries = rec.entries()
        assert entries[0]["status"] == "error"


class TestTracerIntegration:
    def test_spans_from_enabled_telemetry_flow_in(self, enabled_telemetry):
        rec = FlightRecorder()
        rec.attach(telemetry.get_tracer())
        with telemetry.trace_span("serve.request") as sp:
            trace_id = sp.trace_id
            rec.watch(trace_id)
            with telemetry.trace_span("scheduler.submit"):
                pass
        entry = rec.finish(trace_id)
        names = {s["name"] for s in entry["spans"]}
        # The inner span closed while watched; the outer closed after watch too.
        assert "scheduler.submit" in names
        assert "serve.request" in names

    def test_detach_stops_collection(self):
        tracer = Tracer()
        rec = FlightRecorder()
        rec.attach(tracer)
        rec.watch("t1")
        rec.detach()
        tracer.add(span_for("t1"))
        entry = rec.finish("t1")
        assert entry["spans"] == []


class TestTracerBounds:
    def test_max_spans_ring(self):
        tracer = Tracer(max_spans=3)
        for i in range(10):
            tracer.add(span_for(f"t{i}"))
        spans = tracer.spans()
        assert len(spans) == 3
        assert spans[-1]["trace"] == "t9"

    def test_subscribe_unsubscribe(self):
        tracer = Tracer()
        seen = []
        unsub = tracer.subscribe(seen.append)
        tracer.add(span_for("t1"))
        unsub()
        tracer.add(span_for("t2"))
        assert len(seen) == 1
