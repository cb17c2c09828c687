"""Flight recorder: bounded in-memory retention of whole request traces.

A long-running portal server cannot keep every span forever, yet during an
incident the spans you need most are exactly the ones from the requests
that just failed.  The flight recorder subscribes to the tracer's span
stream (:meth:`repro.telemetry.tracing.Tracer.subscribe`) and buckets
spans *by trace id* for traces it has been told to watch:

* the last ``max_completed`` successfully completed request traces are
  retained in a ring (oldest evicted first);
* **all** error and shed traces are retained, up to a separate (larger)
  ``max_errors`` ring;
* everything can be dumped to JSONL on demand (``POST /debug/flight/dump``),
  one JSON object per trace.

Only watched traces cost anything: the listener is a dict lookup for
every span, so background spans (benchmarks, CLI runs sharing the
process) pass straight through.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict, deque
from typing import Any

__all__ = ["FlightRecorder", "TraceEntry"]

#: Spans retained per watched trace; beyond this, spans are counted but dropped.
MAX_SPANS_PER_TRACE = 256

#: Watched-but-never-finished traces are evicted beyond this count (leak guard
#: for requests whose connection died before the finish hook ran).
MAX_OPEN_TRACES = 1024

#: A retained trace: {"trace", "status", "meta", "spans", "dropped_spans", "ts"}.
TraceEntry = dict


class FlightRecorder:
    """Bounded retention of completed / errored request traces."""

    def __init__(
        self,
        max_completed: int = 64,
        max_errors: int = 256,
        max_spans_per_trace: int = MAX_SPANS_PER_TRACE,
    ) -> None:
        self.max_completed = max_completed
        self.max_errors = max_errors
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        # trace_id -> (spans, dropped count); insertion-ordered for eviction.
        self._open: OrderedDict[str, tuple[list[dict], int]] = OrderedDict()
        self._completed: deque[TraceEntry] = deque(maxlen=max_completed)
        self._errors: deque[TraceEntry] = deque(maxlen=max_errors)
        self._unsubscribe = None

    # -- tracer wiring ---------------------------------------------------------
    def attach(self, tracer: Any) -> None:
        """Subscribe to a tracer's span stream (idempotent per recorder)."""
        if self._unsubscribe is None:
            self._unsubscribe = tracer.subscribe(self._on_span)

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    def _on_span(self, record: dict) -> None:
        trace_id = record.get("trace")
        with self._lock:
            slot = self._open.get(trace_id)
            if slot is None:
                return
            spans, dropped = slot
            if len(spans) < self.max_spans_per_trace:
                spans.append(record)
            else:
                self._open[trace_id] = (spans, dropped + 1)

    # -- request lifecycle -----------------------------------------------------
    def watch(self, trace_id: str) -> None:
        """Start collecting spans for ``trace_id``."""
        with self._lock:
            if trace_id not in self._open:
                self._open[trace_id] = ([], 0)
                while len(self._open) > MAX_OPEN_TRACES:
                    self._open.popitem(last=False)

    def finish(
        self,
        trace_id: str,
        status: str = "ok",
        meta: dict[str, Any] | None = None,
    ) -> TraceEntry | None:
        """Seal a watched trace into the completed or error ring.

        ``status`` ``"ok"`` lands in the completed ring; anything else
        (``"error"``, ``"shed"``) in the error ring, which is never
        displaced by healthy traffic.
        """
        with self._lock:
            slot = self._open.pop(trace_id, None)
            if slot is None:
                return None
            spans, dropped = slot
            entry: TraceEntry = {
                "trace": trace_id,
                "status": status,
                "meta": meta or {},
                "spans": spans,
                "dropped_spans": dropped,
                "ts": time.time(),
            }
            if status == "ok":
                self._completed.append(entry)
            else:
                self._errors.append(entry)
            return entry

    # -- lookup ----------------------------------------------------------------
    def get(self, trace_id: str) -> TraceEntry | None:
        """Find a retained (or still-open) trace by id."""
        with self._lock:
            slot = self._open.get(trace_id)
            if slot is not None:
                return {
                    "trace": trace_id,
                    "status": "open",
                    "meta": {},
                    "spans": list(slot[0]),
                    "dropped_spans": slot[1],
                    "ts": None,
                }
            for ring in (self._errors, self._completed):
                for entry in reversed(ring):
                    if entry["trace"] == trace_id:
                        return entry
        return None

    def entries(self) -> list[TraceEntry]:
        """All retained traces, errors first, oldest first within each ring."""
        with self._lock:
            return list(self._errors) + list(self._completed)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "open": len(self._open),
                "completed": len(self._completed),
                "errors": len(self._errors),
                "capacity_completed": self.max_completed,
                "capacity_errors": self.max_errors,
            }

    # -- dump ------------------------------------------------------------------
    def dump(self, path: str | os.PathLike) -> int:
        """Write the retained traces to ``path`` as JSONL; returns the count."""
        entries = self.entries()
        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True, default=str) + "\n")
        return len(entries)
