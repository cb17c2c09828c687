"""The live observability plane for the serving tier.

:class:`ObservabilityPlane` bundles everything an operator needs to see a
running portal *now*, as opposed to the cumulative registry dumps that
feed post-hoc reports:

* windowed request/shed/status rates (1 s / 10 s / 60 s) per route and
  per tenant, and windowed latency quantiles — each a read over the
  per-second history the metrics registry keeps for every series, which
  ``serve/server.py:record_request`` writes once per request; the plane
  itself counts nothing;
* the :class:`~repro.telemetry.flight.FlightRecorder`, watching every
  request trace and retaining the recent + all errored ones;
* the availability and p99-latency budgets of :mod:`repro.telemetry.slo`,
  burned over short/long windows of the same history;
* a structured JSONL access log (one line per request: method, path,
  tenant, status, shed reason, bytes, duration, trace id) with a bounded
  in-memory tail for ``/debug/requests``.

Every :class:`~repro.serve.app.ServeApp` has a plane.  It follows the
telemetry guard discipline: the serving tier asks ``plane.enabled`` once per
request and otherwise touches nothing, so a disabled plane costs only
that test (the end-to-end cost of telemetry on the real path is
``telemetry.enabled_overhead_share`` in ``benchmarks/e2e``).
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
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.telemetry.slo import (
    LATENCY_TARGET_S,
    REQUESTS,
    SLO_LATENCY,
    failed,
    slo_snapshot,
)

__all__ = ["ObservabilityPlane", "request_id_of", "trace_context_of"]

#: The windows of the live views, seconds.
WINDOWS: tuple[int, ...] = (1, 10, 60)

#: The trailing window the latency quantiles cover, seconds.
LATENCY_WINDOW_S = 60

#: Sheds by reason; ``connection-flood`` is a request shed before it was parsed.
SHEDS = "serve_shed_total"
FLOOD = "connection-flood"

#: Requests by tenant (the ``X-Tenant`` header, or the ``user`` query).
TENANT_REQUESTS = "tenant_requests_total"

#: One counter series: its labels, lifetime total and rate over each window.
_Row = tuple[dict[str, str], float, list[float]]

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


def _rows(registry: MetricsRegistry, name: str, now: float) -> list[_Row]:
    """Every series of counter ``name``, read over :data:`WINDOWS` at ``now``.

    A rate over *w* seconds is the count over the *w* whole seconds before
    the one ``now`` falls in, divided by *w*: every second it counts is
    complete, so a steady rate reads true at any phase, a second late."""
    family = registry.get(name)
    if not isinstance(family, Counter):
        return []
    windows = [family.window(w, now - 1) for w in WINDOWS]
    return [
        (dict(key), total, [window.get(key, 0.0) / w for window, w in zip(windows, WINDOWS)])
        for key, total in family.samples()
    ]


def _counter(rows: list[_Row]) -> dict[str, float]:
    """``rate_1s``/``rate_10s``/``rate_60s`` and ``total`` of ``rows`` summed."""
    rates = {f"rate_{w}s": sum(r[i] for _, _, r in rows) for i, w in enumerate(WINDOWS)}
    return {**rates, "total": sum(total for _, total, _ in rows)}


def _by(rows: list[_Row], group) -> dict[str, dict[str, float]]:
    """Per group of ``rows`` (``group(labels)``), the summed rate per window."""
    sums: dict[str, list[float]] = {}
    for labels, _, rates in rows:
        have = sums.setdefault(group(labels), [0.0] * len(WINDOWS))
        for i, rate in enumerate(rates):
            have[i] += rate
    return {
        name: {f"{w}s": rate for w, rate in zip(WINDOWS, rates)}
        for name, rates in sorted(sums.items())
    }


def _status_class(labels: dict[str, str]) -> str:
    """``2xx`` … ``5xx``, or ``aborted`` when no status reached the client."""
    status = int(labels.get("status", 503))  # a flood is shed with a bare 503
    return f"{status // 100}xx" if status else "aborted"


def _latency(registry: MetricsRegistry, now: float) -> dict[str, float | None]:
    """p50/p95/p99 of the requests the latency window holds: those that
    neither failed, nor were a long-poll, nor were shed."""
    family = registry.get(SLO_LATENCY)
    if not isinstance(family, Histogram):
        return {f"p{q}": None for q in (50, 95, 99)}
    counts = family.window(LATENCY_WINDOW_S, now).get((("shed", "false"),), ())
    return {f"p{q}": bucket_quantile(family.buckets, counts, q) for q in (50, 95, 99)}


class ObservabilityPlane:
    """Windowed views + flight recorder + SLO budgets + access log."""

    def __init__(
        self,
        *,
        access_log_path: str | os.PathLike | None = None,
        latency_target_s: float = LATENCY_TARGET_S,
    ) -> None:
        self.enabled = False
        self.access_log_path = os.fspath(access_log_path) if access_log_path else None
        self.started_at = time.time()
        self.latency_target_s = latency_target_s
        #: ``SLO_LATENCY``'s bounds: with the target, "at most the target"
        #: is an exact bucket count.
        self.latency_buckets = tuple(sorted({*DEFAULT_BUCKETS, float(latency_target_s)}))
        # Whole-trace retention.
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
        """Log one finished request and seal its flight entry.  Its counts
        are the registry's, written by ``serve/server.py:record_request``."""
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
            flight_status = "error" if failed(status) else ("shed" if shed_reason else "ok")
            self.flight.finish(trace_id, status=flight_status, meta=entry)

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
        registry = telemetry.get_registry()
        now = registry.clock()
        served = _rows(registry, REQUESTS, now)
        sheds = _rows(registry, SHEDS, now)
        floods = [row for row in sheds if row[0].get("reason") == FLOOD]
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": _counter(served + floods),
            "errors": _counter([row for row in served if failed(row[0]["status"])]),
            "statuses": _by(served + floods, _status_class),
            "sheds": _by(sheds, lambda labels: labels["reason"]),
            "shed_totals": {labels["reason"]: total for labels, total, _ in sheds},
            "routes": _by(served, lambda labels: labels["route"]),
            "tenants": _by(
                _rows(registry, TENANT_REQUESTS, now), lambda labels: labels["tenant"]
            ),
            "latency": {**_latency(registry, now), "window_s": float(LATENCY_WINDOW_S)},
            "access_log_count": self.access_count(),
            "flight": self.flight.stats(),
            "recent": self.access_tail(),
        }

    def slo_snapshot(self) -> dict[str, Any]:
        return slo_snapshot(telemetry.get_registry(), self.latency_target_s)

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
    def gauges(self) -> MetricsRegistry:
        """The windowed values ``/metrics`` shows beside the registry's own
        families, in a registry of their own: computed from the history at
        the scrape, stored nowhere else."""
        snap, objectives = self.requests_snapshot(), self.slo_snapshot()["objectives"]
        out = MetricsRegistry()
        for w in WINDOWS:
            out.gauge("serve_request_rate").set(snap["requests"][f"rate_{w}s"], window=f"{w}s")
            out.gauge("serve_error_rate").set(snap["errors"][f"rate_{w}s"], window=f"{w}s")
        for o in objectives:
            for w in ("long", "short"):
                out.gauge("serve_slo_burn_rate").set(
                    o[f"burn_{w}"], objective=o["objective"], window=w
                )
            out.gauge("serve_slo_budget_remaining").set(
                o["budget_remaining"], objective=o["objective"]
            )
        for name, value in snap["latency"].items():
            if name != "window_s" and value is not None:
                out.gauge("serve_latency_window_seconds").set(value, quantile=name[1:])
        return out
