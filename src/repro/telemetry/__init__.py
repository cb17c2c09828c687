"""``repro.telemetry`` — tracing, metrics and run reports for the pipeline.

One guarded runtime serves the whole process: :func:`enable` installs a
fresh :class:`~repro.telemetry.tracing.Tracer` and
:class:`~repro.telemetry.metrics.MetricsRegistry`; every instrumentation
helper (:func:`trace_span`, :func:`count`, :func:`observe`, ...) checks a
single module-level flag first and is a near-free no-op while telemetry is
disabled — the instrumented hot paths (galMorph kernels, geometry caches,
RLS lookups) pay one attribute test and nothing else, which is what keeps
the tier-1 timing-sensitive benchmarks inside their 2% budget.

Quick start::

    from repro import telemetry

    telemetry.enable()
    ...run a portal session / campaign...
    telemetry.get_tracer().export_jsonl("run-trace.jsonl")
    print(telemetry.prometheus_text())
    telemetry.disable()

Span taxonomy, metric-name conventions and the report format are
documented in ``docs/telemetry.md``.
"""

from __future__ import annotations

import os
import threading
from typing import Any

from repro.telemetry.exporters import parse_prometheus_text, to_prometheus_text
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.slo import SLOTracker
from repro.telemetry.timeseries import LabelledWindows, LatencyWindow, WindowedCounter
from repro.telemetry.tracing import (
    CURRENT_SPAN,
    SpanRecord,
    TraceContext,
    Tracer,
    load_trace_jsonl,
    make_record,
    new_span_id,
    new_trace_id,
    parse_trace_jsonl,
)

__all__ = [
    "enable",
    "disable",
    "enabled",
    "get_tracer",
    "get_registry",
    "trace_span",
    "count",
    "gauge_set",
    "observe",
    "capture_context",
    "prometheus_text",
    "TraceContext",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "load_trace_jsonl",
    "parse_trace_jsonl",
    "parse_prometheus_text",
    "FlightRecorder",
    "SLOTracker",
    "WindowedCounter",
    "LatencyWindow",
    "LabelledWindows",
]

_ENABLE_LOCK = threading.Lock()


class _Runtime:
    """The process-wide telemetry switchboard."""

    __slots__ = ("enabled", "tracer", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.registry = MetricsRegistry()


_RT = _Runtime()


# -- lifecycle -----------------------------------------------------------------
def enable(*, tracer: Tracer | None = None) -> None:
    """Turn telemetry on with a fresh tracer and registry, so a run's
    exports contain only that run (``tracer``: a bounded one, for servers)."""
    with _ENABLE_LOCK:
        _RT.tracer = tracer if tracer is not None else Tracer()
        _RT.registry = MetricsRegistry()
        _RT.enabled = True


def disable() -> None:
    """Turn telemetry off.  Collected spans/metrics stay readable via
    :func:`get_tracer` / :func:`get_registry` until the next ``enable``."""
    with _ENABLE_LOCK:
        _RT.enabled = False


def enabled() -> bool:
    """Is telemetry currently collecting?"""
    return _RT.enabled


def get_tracer() -> Tracer:
    """The current (or most recent) tracer."""
    return _RT.tracer


def get_registry() -> MetricsRegistry:
    """The current (or most recent) metrics registry."""
    return _RT.registry


# -- spans ---------------------------------------------------------------------
class _NoopSpan:
    """Shared, stateless no-op span handle (telemetry disabled)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP = _NoopSpan()


class _ActiveSpan:
    """A live span: context manager recording on exit."""

    __slots__ = ("_tracer", "name", "attrs", "trace_id", "span_id", "parent_id",
                 "_start", "_token", "status")

    def __init__(self, tracer: Tracer, name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.status = "ok"

    def __enter__(self) -> "_ActiveSpan":
        current = CURRENT_SPAN.get()
        if current is None:
            self.trace_id = new_trace_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = current
        self.span_id = new_span_id()
        self._token = CURRENT_SPAN.set((self.trace_id, self.span_id))
        self._start = self._tracer.now()
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        end = self._tracer.now()
        CURRENT_SPAN.reset(self._token)
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", repr(exc))
        self._tracer.add(
            make_record(
                self.name,
                self.trace_id,
                self.span_id,
                self.parent_id,
                self._start,
                end,
                status=self.status,
                attrs=self.attrs,
            )
        )

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)


def trace_span(name: str, **attrs: Any):
    """Open a span: ``with trace_span("portal.build_catalog", cluster=n) as sp``.

    Returns a shared no-op handle when telemetry is disabled — one flag
    test, no allocation, no contextvar traffic.
    """
    if not _RT.enabled:
        return _NOOP
    return _ActiveSpan(_RT.tracer, name, dict(attrs))


# -- metrics helpers -----------------------------------------------------------
def count(name: str, amount: float = 1.0, **labels: Any) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if not _RT.enabled:
        return
    _RT.registry.counter(name).inc(amount, **labels)


def gauge_set(name: str, value: float, **labels: Any) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if not _RT.enabled:
        return
    _RT.registry.gauge(name).set(value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Observe ``value`` into histogram ``name`` (no-op while disabled)."""
    if not _RT.enabled:
        return
    _RT.registry.histogram(name).observe(value, **labels)


def prometheus_text() -> str:
    """Current registry in Prometheus text exposition format."""
    return to_prometheus_text(_RT.registry)


# -- context propagation -------------------------------------------------------
def capture_context() -> TraceContext | None:
    """The innermost open span as a picklable :class:`TraceContext`
    (``None`` when telemetry is disabled or no span is open)."""
    if not _RT.enabled:
        return None
    current = CURRENT_SPAN.get()
    if current is None:
        return None
    return TraceContext(*current)


def env_enabled() -> bool:
    """``REPRO_TELEMETRY=1`` in the environment requests telemetry on."""
    return os.environ.get("REPRO_TELEMETRY", "") not in ("", "0", "false", "no")
