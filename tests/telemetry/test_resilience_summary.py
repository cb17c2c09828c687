"""Tests for the resilience section of the telemetry report."""

from __future__ import annotations

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.report import RESILIENCE_METRICS, render_resilience_summary


class TestRenderResilienceSummary:
    def test_empty_registry_renders_nothing(self):
        assert render_resilience_summary(MetricsRegistry()) == ""

    def test_unrelated_metrics_ignored(self):
        registry = MetricsRegistry()
        registry.counter("service_requests_total").inc(5)
        assert render_resilience_summary(registry) == ""

    def test_families_render_with_totals_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("faults_injected_total").inc(
            2, stream="cone-query", action="timeout"
        )
        registry.counter("faults_injected_total").inc(
            1, stream="cutout-fetch", action="malformed"
        )
        registry.counter("resilience_retries_total").inc(3, target="rls")
        registry.counter("scheduler_requeues_total").inc(1, user="alice")

        text = render_resilience_summary(registry)
        assert text.startswith("== resilience ==")
        assert "faults_injected_total" in text and " 3" in text
        assert "action=timeout,stream=cone-query" in text
        assert "resilience_retries_total" in text
        assert "scheduler_requeues_total" in text

    def test_every_declared_family_is_renderable(self):
        registry = MetricsRegistry()
        for name in RESILIENCE_METRICS:
            if name == "resilience_breaker_open":
                registry.gauge(name).set(1.0, site="isi")
            else:
                registry.counter(name).inc(1, site="isi")
        text = render_resilience_summary(registry)
        for name in RESILIENCE_METRICS:
            assert name in text
