"""Tests for the ``repro top`` dashboard: pure rendering + live polling."""

from __future__ import annotations

import asyncio
import io
import time

from repro import telemetry
from repro.serve.observability import ObservabilityPlane
from repro.serve.server import record_request
from repro.serve.top import CLEAR, render_dashboard, run_top
from tests.serve.conftest import run_with_server

REQUESTS_SNAP = {
    "uptime_s": 12.5,
    "requests": {"rate_1s": 3.0, "rate_10s": 2.5, "rate_60s": 2.0, "total": 150},
    "errors": {"rate_1s": 0.0, "rate_10s": 0.1, "rate_60s": 0.05, "total": 3},
    "latency": {"p50": 0.012, "p95": 0.045, "p99": 0.102, "window_s": 60.0},
    "shed_totals": {"tenant-gate": 4.0, "queue-full": 0.0},
    "tenants": {"alice": {"1s": 2.0, "10s": 1.5, "60s": 0.4}, "bob": {"1s": 0.0, "10s": 1.0, "60s": 0.2}},
    "routes": {"cone": {"1s": 3.0, "10s": 2.0, "60s": 0.5}, "health": {"1s": 0.0, "10s": 0.5, "60s": 0.1}},
    "flight": {"open": 1, "completed": 42, "errors": 2},
}
SLO_SNAP = {
    "state": "warn",
    "objectives": [
        {
            "objective": "availability",
            "state": "ok",
            "burn_short": 0.0,
            "burn_long": 0.1,
            "budget_remaining": 0.98,
        },
        {
            "objective": "latency",
            "state": "warn",
            "burn_short": 7.0,
            "burn_long": 6.5,
            "budget_remaining": 0.42,
        },
    ],
}
HEALTH_SNAP = {
    "status": "degraded",
    "queued": 4,
    "running": 2,
    "inflight": 3,
    "sites": {"siteA": "up", "siteB": "degraded"},
}


class TestRenderDashboard:
    def test_renders_all_sections(self):
        frame = render_dashboard(
            REQUESTS_SNAP, SLO_SNAP, HEALTH_SNAP, url="http://x:1"
        )
        assert "repro top — http://x:1" in frame
        assert "up 12s" in frame or "up 13s" in frame
        assert "total 150" in frame
        assert "1s    3.0 rps" in frame and "60s    2.0 rps" in frame
        assert "p99" in frame and "102.0 ms" in frame
        assert "queued 4" in frame and "running 2" in frame and "inflight 3" in frame
        assert "availability" in frame and "latency" in frame
        assert "WARN" in frame  # the latency objective is warning
        assert "budget  42.0%" in frame
        assert "tenant-gate 4" in frame
        assert "queue-full" not in frame  # zero-count sheds are hidden
        assert "alice 1.5" in frame and "bob 1.0" in frame
        assert "siteA up" in frame and "siteB degraded" in frame
        assert "open 1" in frame and "completed 42" in frame

    def test_deterministic_given_fixed_clock(self):
        clock = lambda: time.localtime(0)  # noqa: E731
        one = render_dashboard(REQUESTS_SNAP, SLO_SNAP, HEALTH_SNAP, clock=clock)
        two = render_dashboard(REQUESTS_SNAP, SLO_SNAP, HEALTH_SNAP, clock=clock)
        assert one == two

    def test_renders_what_a_plane_that_served_traffic_reports(self):
        """The payload shapes ``/debug/requests`` really sends once requests were served."""
        telemetry.enable()
        plane = ObservabilityPlane()
        for tenant in ("alice", "alice", "bob"):
            record_request("cone", 200, 0.01, plane, tenant=tenant)
        frame = render_dashboard(plane.requests_snapshot(), plane.slo_snapshot(), {})
        tenants = next(line for line in frame.splitlines() if line.startswith("tenants"))
        assert tenants.split()[1::2] == ["alice", "bob"]  # ranked by their 10 s rate
        assert "total 3" in frame

    def test_empty_payloads_do_not_crash(self):
        frame = render_dashboard({}, {}, {})
        assert "repro top" in frame
        assert "(idle)" in frame
        assert "total 0" in frame


class TestRunTopLive:
    def test_polls_a_live_observable_stack(self):
        async def scenario(stack, host, port):
            buffer = io.StringIO()
            loop = asyncio.get_running_loop()
            # urllib is synchronous: run it off-loop so the server can answer.
            code = await loop.run_in_executor(
                None,
                lambda: run_top(
                    f"http://{host}:{port}", once=True, stream=buffer
                ),
            )
            return code, buffer.getvalue()

        code, frame = run_with_server(scenario, observability=True)
        assert code == 0
        assert CLEAR not in frame  # once=True leaves the frame greppable
        assert "requests" in frame and "slo" in frame and "flight" in frame

    def test_exit_code_2_when_plane_disabled(self):
        async def scenario(stack, host, port):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(
                None,
                lambda: run_top(
                    f"http://{host}:{port}", once=True, stream=io.StringIO()
                ),
            )

        assert run_with_server(scenario) == 2

    def test_exit_code_1_when_unreachable(self):
        assert run_top("http://127.0.0.1:9", once=True, stream=io.StringIO()) == 1
