"""Lightweight distributed-style tracing for the reproduction pipeline.

The SC'03 system is an *end-to-end* chain — portal request → VO services →
Chimera VDL → Pegasus planning → DAGMan/Condor execution → galMorph
kernels — and operating it at campaign scale requires seeing where time
goes in that chain.  This module provides the span primitives:

* :class:`Tracer` — an append-only, thread-safe store of finished span
  records with JSONL export;
* contextvar-propagated trace/span ids, so a span opened on a worker
  thread (via ``contextvars.copy_context()``) or re-attached later from a
  captured :class:`TraceContext` still parents correctly;
* monotonic timings relative to the tracer epoch (small floats, stable
  under clock adjustments);
* one record schema (:func:`make_record`) whose ``clock`` tag tells wall
  time from virtual time (live spans are ``"wall"``; the report prints a
  recorded trace's ``clock="sim"`` node spans as they are).

The zero-cost-when-disabled guard lives in :mod:`repro.telemetry`
(``trace_span`` returns a shared no-op handle when telemetry is off);
nothing in this module is imported on the hot path unless enabled.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "set_current",
    "CURRENT_SPAN",
]

#: (trace_id, span_id) of the innermost open span in this execution context.
CURRENT_SPAN: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_telemetry_span", default=None
)

_COUNTER = itertools.count(1)


def _pid_salt() -> str:
    return f"{os.getpid():x}"


def new_span_id() -> str:
    """Process-unique span id (pid salt + monotone counter)."""
    return f"s{_pid_salt()}-{next(_COUNTER):x}"


def new_trace_id() -> str:
    """Globally unique trace id."""
    return f"t{_pid_salt()}-{uuid.uuid4().hex[:10]}"


@dataclass(frozen=True)
class TraceContext:
    """Picklable (trace id, span id) pair: the innermost open span as
    captured by :func:`repro.telemetry.capture_context`, so work that runs
    later on another thread can parent its spans under it."""

    trace_id: str
    span_id: str


#: A finished span, as stored and exported.  Plain dict for JSONL friendliness.
SpanRecord = dict


def set_current(ids: tuple[str, str] | None) -> contextvars.Token:
    """Set the current span ids; returns the token for resetting."""
    return CURRENT_SPAN.set(ids)


class Tracer:
    """Append-only, thread-safe store of finished span records.

    Timings are seconds relative to the tracer's creation (monotonic
    clock), so exported traces contain small, comparable floats.
    """

    def __init__(self, max_spans: int | None = None) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] | deque[SpanRecord] = (
            list() if max_spans is None else deque(maxlen=max_spans)
        )
        self._listeners: list[Callable[[SpanRecord], None]] = []
        self.epoch_wall = time.time()
        self._epoch = time.perf_counter()

    # -- clocks ---------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the tracer epoch (monotonic)."""
        return time.perf_counter() - self._epoch

    # -- recording -----------------------------------------------------------
    def add(self, record: SpanRecord) -> SpanRecord:
        with self._lock:
            self._records.append(record)
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(record)
        return record

    def subscribe(self, listener: Callable[[SpanRecord], None]) -> Callable[[], None]:
        """Call ``listener`` for every span as it lands; returns an
        unsubscribe callable.  Listeners run outside the tracer lock and
        must not raise — the flight recorder is the intended consumer."""
        with self._lock:
            self._listeners.append(listener)

        def _unsubscribe() -> None:
            with self._lock:
                try:
                    self._listeners.remove(listener)
                except ValueError:
                    pass

        return _unsubscribe

    def spans(self) -> list[SpanRecord]:
        """Snapshot of all finished spans, in completion order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    # -- export ---------------------------------------------------------------
    def export_jsonl(self, path: str | os.PathLike) -> int:
        """Write the JSONL trace to ``path``; returns the span count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, sort_keys=True, default=str) + "\n")
        return len(spans)


def load_trace_jsonl(source: str | os.PathLike) -> list[SpanRecord]:
    """Parse a JSONL trace from a path; skips blank lines."""
    with open(source, "r", encoding="utf-8") as fh:
        return parse_trace_jsonl(fh.read())


def parse_trace_jsonl(text: str) -> list[SpanRecord]:
    """Parse JSONL trace text into span records."""
    records: list[SpanRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed trace line {lineno}: {exc}") from exc
        if not isinstance(rec, dict) or "name" not in rec or "span" not in rec:
            raise ValueError(f"trace line {lineno} is not a span record")
        records.append(rec)
    return records


def make_record(
    name: str,
    trace_id: str,
    span_id: str,
    parent_id: str | None,
    start: float,
    end: float,
    status: str = "ok",
    attrs: dict[str, Any] | None = None,
) -> SpanRecord:
    """Assemble the canonical span-record dict (the JSONL line schema)."""
    return {
        "name": name,
        "trace": trace_id,
        "span": span_id,
        "parent": parent_id,
        "start": round(float(start), 9),
        "end": round(float(end), 9),
        "dur": round(float(end) - float(start), 9),
        "status": status,
        "clock": "wall",
        "pid": os.getpid(),
        "attrs": attrs or {},
    }
