"""The live observability plane for the serving tier.

:class:`ObservabilityPlane` bundles everything an operator needs to see a
running portal *now*, as opposed to the cumulative registry dumps that
feed post-hoc reports:

* windowed request/shed/status rates (1 s / 10 s / 60 s) and a decaying
  latency quantile window, per route and per tenant;
* the :class:`~repro.telemetry.flight.FlightRecorder`, watching every
  request trace and retaining the recent + all errored ones;
* the :class:`~repro.telemetry.slo.SLOTracker` burning availability and
  p99-latency budgets over short/long windows;
* a structured JSONL access log (one line per request: method, path,
  tenant, status, shed reason, bytes, duration, trace id) with a bounded
  in-memory tail for ``/debug/requests``.

The plane follows the PR-2 guard discipline: the serving tier asks
``plane is not None and plane.enabled`` once per request and otherwise
touches nothing, so a stack built without a plane — or with the plane
disabled — pays only that test (the end-to-end cost of telemetry on the
real path is ``telemetry.enabled_overhead_share`` in ``benchmarks/e2e``).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
import uuid
from collections import deque
from typing import Any

from repro import telemetry
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.slo import LATENCY_TARGET_S, SLOTracker
from repro.telemetry.timeseries import LabelledWindows, LatencyWindow, WindowedCounter

__all__ = ["ObservabilityPlane", "request_id_of", "trace_context_of"]

#: Request ids accepted from clients: header token chars, bounded length.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._~-]{1,64}$")

#: ``X-Trace-Context: <trace_id>/<span_id>`` — both token-shaped.
_TRACE_CTX_RE = re.compile(r"^([A-Za-z0-9._~-]{1,64})/([A-Za-z0-9._~-]{1,64})$")

#: Recent access-log entries kept in memory for ``/debug/requests``.
ACCESS_TAIL = 20

#: Name of the request-id header, both directions.
REQUEST_ID_HEADER = "X-Request-Id"
TRACE_CTX_HEADER = "X-Trace-Context"
TRACE_ID_HEADER = "X-Trace-Id"


def request_id_of(request: Any) -> str:
    """The client's ``X-Request-Id`` if well-formed, else a fresh one.

    Malformed ids (overlong, non-token characters) are replaced rather
    than echoed — a request header must never be able to corrupt the
    response head or the access log.
    """
    supplied = request.header("x-request-id")
    if supplied and _REQUEST_ID_RE.match(supplied):
        return supplied
    return f"r-{uuid.uuid4().hex[:12]}"


def trace_context_of(request: Any) -> tuple[str, str | None]:
    """(trace_id, parent_span_id) from ``X-Trace-Context``, or a fresh trace."""
    supplied = request.header("x-trace-context")
    if supplied:
        match = _TRACE_CTX_RE.match(supplied)
        if match:
            return match.group(1), match.group(2)
    from repro.telemetry.tracing import new_trace_id

    return new_trace_id(), None


def _finite(value: float | None) -> float | None:
    """NaN/inf → ``None`` so debug payloads stay strict JSON."""
    if value is None or value != value or value in (float("inf"), float("-inf")):
        return None
    return value


class ObservabilityPlane:
    """Windowed stats + flight recorder + SLO tracking + access log."""

    def __init__(
        self,
        *,
        access_log_path: str | os.PathLike | None = None,
        latency_target_s: float = LATENCY_TARGET_S,
    ) -> None:
        self.enabled = False
        self.access_log_path = os.fspath(access_log_path) if access_log_path else None
        self.started_at = time.time()
        # Windowed counters.
        self.requests = WindowedCounter()
        self.errors = WindowedCounter()
        self.statuses = LabelledWindows(max_series=16)
        self.sheds = LabelledWindows(max_series=16)
        self.tenants = LabelledWindows(max_series=64)
        self.routes = LabelledWindows(max_series=32)
        self.latency = LatencyWindow(span_s=60.0)
        # Burn-rate budgets and whole-trace retention.
        self.slo = SLOTracker(latency_target_s)
        self.flight = FlightRecorder()
        self._access_tail: deque[dict[str, Any]] = deque(maxlen=ACCESS_TAIL)
        self._access_count = 0
        self._log_lock = threading.Lock()
        self._log_file: Any = None

    # -- lifecycle ------------------------------------------------------------
    def enable(self) -> None:
        """Turn the plane on; requires telemetry for span collection.

        When telemetry is off, it is enabled with a *bounded* tracer
        (ring of recent spans) — a long-running server must not grow an
        append-only span list forever.  An already-enabled telemetry
        runtime is left untouched.
        """
        if not telemetry.enabled():
            from repro.telemetry.tracing import Tracer

            telemetry.enable(tracer=Tracer(max_spans=50_000))
        self.flight.attach(telemetry.get_tracer())
        if self.access_log_path and self._log_file is None:
            self._log_file = open(self.access_log_path, "a", encoding="utf-8")
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
        self.flight.detach()

    def close(self) -> None:
        self.disable()
        with self._log_lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

    # -- request lifecycle ------------------------------------------------------
    def begin(self, trace_id: str) -> None:
        if trace_id:
            self.flight.watch(trace_id)

    def end(
        self,
        *,
        trace_id: str,
        request_id: str,
        method: str,
        path: str,
        route: str,
        tenant: str,
        status: int,
        shed_reason: str = "",
        bytes_sent: int = 0,
        duration_s: float = 0.0,
        error: str = "",
    ) -> None:
        """Account one finished request everywhere at once."""
        failed = bool(error) or status >= 500 or status == 0
        shed = bool(shed_reason) and not failed
        self.requests.add()
        self.statuses.add(f"{status // 100}xx" if status else "aborted")
        self.routes.add(route)
        self.tenants.add(tenant)
        if failed:
            self.errors.add()
        if shed_reason:
            self.sheds.add(shed_reason)
        if not failed and not shed:
            self.latency.observe(duration_s)
        self.slo.record(ok=not failed, latency_s=None if failed else duration_s)
        entry = {
            "ts": round(time.time(), 6),
            "method": method,
            "path": path,
            "route": route,
            "tenant": tenant,
            "status": status,
            "shed": shed_reason,
            "bytes": bytes_sent,
            "dur_ms": round(duration_s * 1000.0, 3),
            "trace": trace_id,
            "request_id": request_id,
        }
        if error:
            entry["error"] = error
        self._log(entry)
        if trace_id:
            flight_status = "error" if failed else ("shed" if shed else "ok")
            self.flight.finish(trace_id, status=flight_status, meta=entry)

    def record_flood(self) -> None:
        """A connection shed before any request was parsed."""
        self.requests.add()
        self.sheds.add("connection-flood")
        self.statuses.add("5xx")

    # -- access log -------------------------------------------------------------
    def _log(self, entry: dict[str, Any]) -> None:
        # Serialise outside the lock, and only when a file sink exists.
        line = (
            json.dumps(entry, sort_keys=True) if self._log_file is not None else None
        )
        with self._log_lock:
            self._access_count += 1
            self._access_tail.append(entry)
            if self._log_file is not None and line is not None:
                self._log_file.write(line + "\n")
                self._log_file.flush()

    def access_count(self) -> int:
        with self._log_lock:
            return self._access_count

    def access_tail(self) -> list[dict[str, Any]]:
        with self._log_lock:
            return list(self._access_tail)

    # -- flight dumps -----------------------------------------------------------
    def dump_flight(self, path: str | os.PathLike) -> int:
        return self.flight.dump(path)

    # -- debug snapshots ---------------------------------------------------------
    def requests_snapshot(self) -> dict[str, Any]:
        quantiles = {
            k: _finite(v) for k, v in self.latency.quantiles().items()
        }
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": self.requests.snapshot(),
            "errors": self.errors.snapshot(),
            "statuses": self.statuses.rates(),
            "sheds": self.sheds.rates(),
            "shed_totals": self.sheds.totals(),
            "routes": self.routes.rates(),
            "tenants": self.tenants.rates(),
            "latency": {**quantiles, "window_s": self.latency.span_s},
            "access_log_count": self.access_count(),
            "flight": self.flight.stats(),
            "recent": self.access_tail(),
        }

    def slo_snapshot(self) -> dict[str, Any]:
        return self.slo.snapshot()

    def trace_snapshot(self, trace_id: str) -> dict[str, Any] | None:
        """A retained trace by id, merged with any late spans.

        Work the request queued (scheduler job bodies, executor nodes)
        completes *after* the HTTP response sealed the flight entry, so
        the live tracer is scanned for same-trace spans the recorder
        missed; traces that were never watched at all (e.g. CLI-origin
        spans) come back entirely from that scan.
        """
        entry = self.flight.get(trace_id)
        tracer_spans = [
            s for s in telemetry.get_tracer().spans() if s.get("trace") == trace_id
        ]
        if entry is None:
            if not tracer_spans:
                return None
            return {
                "trace": trace_id,
                "status": "unwatched",
                "meta": {},
                "spans": tracer_spans,
                "dropped_spans": 0,
                "ts": None,
            }
        seen = {s.get("span") for s in entry["spans"]}
        late = [s for s in tracer_spans if s.get("span") not in seen]
        if late:
            entry = {**entry, "spans": list(entry["spans"]) + late}
        return entry

    # -- /metrics enrichment -----------------------------------------------------
    def publish_gauges(self) -> None:
        """Push windowed rates into the metrics registry for scraping."""
        for label, rate in self.requests.rates().items():
            telemetry.gauge_set("serve_request_rate", rate, window=label)
        for label, rate in self.errors.rates().items():
            telemetry.gauge_set("serve_error_rate", rate, window=label)
        for name, value in self.latency.quantiles().items():
            finite = _finite(value)
            if finite is not None:
                telemetry.gauge_set(
                    "serve_latency_window_seconds", finite, quantile=name[1:]
                )
        snap = self.slo.snapshot()
        for objective in snap["objectives"]:
            telemetry.gauge_set(
                "serve_slo_burn_rate",
                objective["burn_long"],
                objective=objective["objective"],
                window="long",
            )
            telemetry.gauge_set(
                "serve_slo_burn_rate",
                objective["burn_short"],
                objective=objective["objective"],
                window="short",
            )
            telemetry.gauge_set(
                "serve_slo_budget_remaining",
                objective["budget_remaining"],
                objective=objective["objective"],
            )
