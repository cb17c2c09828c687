"""End-to-end tests of the live observability plane over real HTTP.

The request-id echo is a *protocol* contract (held in every plane
configuration); the trace header, ``/debug`` surface, access log, flight
recorder and SLO payloads are the plane's own surface and only appear
when the stack was built with ``observability=True``.
"""

from __future__ import annotations

import asyncio
import json
import re
import time

import pytest

from repro import telemetry
from repro.serve.app import TenantGate
from repro.serve.loadgen import http_request
from repro.telemetry.exporters import parse_prometheus_text
from repro.telemetry.metrics import MAX_SERIES, OVERFLOW
from tests.doubles import HeldJobRunner, SyntheticJobRunner
from tests.serve.conftest import TINY_DEC, TINY_NAME, TINY_RA, run_with_server

MINTED_ID = re.compile(r"^r-[0-9a-f]{12}$")


async def _get(host, port, target, *, headers=(), method="GET", body=b""):
    return await http_request(host, port, method, target, headers=headers, body=body)


# -- the X-Request-Id echo contract -------------------------------------------
@pytest.mark.parametrize("observability", [True, None, False])
def test_request_id_echoed_in_every_plane_configuration(observability):
    async def scenario(stack, host, port):
        status, headers, _ = await _get(
            host, port, "/health", headers=[("X-Request-Id", "client-id-42")]
        )
        return status, headers

    status, headers = run_with_server(scenario, observability=observability)
    assert status == 200
    assert headers["x-request-id"] == "client-id-42"


def test_request_id_minted_when_client_sends_none():
    async def scenario(stack, host, port):
        _, headers, _ = await _get(host, port, "/health")
        return headers

    headers = run_with_server(scenario)
    assert MINTED_ID.match(headers["x-request-id"])


def test_malformed_request_id_is_replaced_not_echoed():
    async def scenario(stack, host, port):
        _, headers, _ = await _get(
            host, port, "/health", headers=[("X-Request-Id", "bad id<script>")]
        )
        return headers

    headers = run_with_server(scenario)
    assert headers["x-request-id"] != "bad id<script>"
    assert MINTED_ID.match(headers["x-request-id"])


def test_request_id_echoed_on_shed_and_error_statuses():
    async def scenario(stack, host, port):
        # Fill the gate so the next request is shed with 429 tenant-gate.
        stack.app.gate = TenantGate(per_tenant=1, total=1)
        assert stack.app.gate.try_enter("filler")
        shed_status, shed_headers, _ = await _get(
            host, port, "/queue", headers=[("X-Request-Id", "shed-1")]
        )
        stack.app.gate.leave("filler")
        missing_status, missing_headers, _ = await _get(
            host, port, "/no/such/route", headers=[("X-Request-Id", "lost-1")]
        )
        return shed_status, shed_headers, missing_status, missing_headers

    shed_status, shed_headers, missing_status, missing_headers = run_with_server(
        scenario
    )
    assert shed_status == 429
    assert shed_headers["x-request-id"] == "shed-1"
    assert "retry-after" in shed_headers
    assert missing_status == 404
    assert missing_headers["x-request-id"] == "lost-1"


# -- trace headers -------------------------------------------------------------
def test_trace_id_header_only_when_plane_enabled():
    async def scenario(stack, host, port):
        _, headers, _ = await _get(host, port, "/health")
        return headers

    enabled = run_with_server(scenario, observability=True)
    assert enabled["x-trace-id"]
    disabled = run_with_server(scenario)  # default: plane wired but off
    assert "x-trace-id" not in disabled


def test_supplied_trace_context_is_adopted():
    async def scenario(stack, host, port):
        _, headers, _ = await _get(
            host,
            port,
            "/health",
            headers=[("X-Trace-Context", "trace-abc123/span-007")],
        )
        return headers

    headers = run_with_server(scenario, observability=True)
    assert headers["x-trace-id"] == "trace-abc123"


# -- the tentpole: one trace across the HTTP boundary --------------------------
def test_single_trace_covers_submit_through_execution():
    async def scenario(stack, host, port):
        body = json.dumps(
            {"user": "alice", "cluster": TINY_NAME, "options": {}}
        ).encode()
        status, headers, payload = await _get(
            host,
            port,
            "/jobs",
            method="POST",
            body=body,
            headers=[("Content-Type", "application/json")],
        )
        assert status == 202
        trace_id = headers["x-trace-id"]
        job = json.loads(payload)
        # Wait for the job to finish so the executor-side spans land.
        status, _, payload = await _get(
            host, port, f"/jobs/{job['job_id']}?wait=15"
        )
        assert status == 200
        assert json.loads(payload)["state"] == "completed"
        status, _, payload = await _get(host, port, f"/debug/trace/{trace_id}")
        assert status == 200
        return trace_id, json.loads(payload)

    trace_id, entry = run_with_server(scenario, observability=True)
    assert entry["trace"] == trace_id
    names = {span["name"] for span in entry["spans"]}
    assert {
        "serve.request",
        "scheduler.admission",
        "scheduler.journal",
        "scheduler.job",
    } <= names
    assert all(span["trace"] == trace_id for span in entry["spans"])


def test_trace_endpoint_404s_for_unknown_trace():
    async def scenario(stack, host, port):
        status, _, _ = await _get(host, port, "/debug/trace/never-happened")
        return status

    assert run_with_server(scenario, observability=True) == 404


# -- access log ----------------------------------------------------------------
def test_access_log_file_gets_one_line_per_request(tmp_path):
    log_path = tmp_path / "access.jsonl"

    async def scenario(stack, host, port):
        for _ in range(3):
            await _get(host, port, "/health")
        return stack.plane.access_count()

    count = run_with_server(
        scenario, observability=True, access_log_path=str(log_path)
    )
    assert count == 3
    lines = [json.loads(l) for l in log_path.read_text().splitlines() if l]
    assert len(lines) == 3
    for line in lines:
        assert line["method"] == "GET"
        assert line["path"] == "/health"
        assert line["status"] == 200
        assert line["trace"] and line["request_id"]
        assert line["dur_ms"] >= 0.0


# -- /debug surface -------------------------------------------------------------
def test_debug_requests_snapshot_shape():
    async def scenario(stack, host, port):
        await _get(host, port, f"/cone?RA={TINY_RA}&DEC={TINY_DEC}&SR=0.1")
        await _get(host, port, "/health")
        _, _, payload = await _get(host, port, "/debug/requests")
        return json.loads(payload)

    snap = run_with_server(scenario, observability=True)
    assert snap["requests"]["total"] >= 2
    assert snap["errors"]["total"] == 0
    assert set(snap["latency"]) == {"p50", "p95", "p99", "window_s"}
    assert "cone" in snap["routes"]
    assert snap["access_log_count"] >= 2
    # The snapshot is rendered before its own request is accounted, so the
    # newest entry in the tail is the request *before* the debug call.
    assert snap["recent"][-1]["route"] == "health"
    assert snap["flight"]["open"] >= 0


def test_debug_slo_snapshot_shape():
    async def scenario(stack, host, port):
        await _get(host, port, "/health")
        _, _, payload = await _get(host, port, "/debug/slo")
        return json.loads(payload)

    snap = run_with_server(scenario, observability=True)
    assert snap["state"] == "ok"
    names = {o["objective"] for o in snap["objectives"]}
    assert names == {"availability", "latency"}
    for objective in snap["objectives"]:
        assert 0.0 <= objective["budget_remaining"] <= 1.0


def test_long_poll_spends_no_latency_budget_but_a_slow_request_does():
    """Submit -> ``?wait=`` -> result on a job slower than the target keeps
    the SLO ``ok``; a plain request as slow still spends latency budget."""
    target = 0.25

    # The job starts at POST; holding it until the poll is in flight makes
    # the poll wait out the job's whole run.
    runner = HeldJobRunner(SyntheticJobRunner(base_seconds=2 * target, spread_seconds=0.0))

    async def scenario(stack, host, port):
        status, headers, _ = await _get(
            host, port, "/jobs", method="POST",
            headers=[("X-Tenant", "alice"), ("Content-Type", "application/json")],
            body=json.dumps({"cluster": TINY_NAME}).encode(),
        )
        assert status == 202
        location = headers["location"]
        poll = asyncio.ensure_future(
            _get(host, port, f"{location}?wait=30", headers=[("X-Tenant", "alice")])
        )
        while stack.app.gate.inflight("alice") != 1 and not poll.done():
            await asyncio.sleep(0.001)
        runner.release.set()
        status, _, body = await poll
        assert status == 200 and b'"state": "completed"' in body
        status, _, _ = await _get(host, port, f"{location}/result")
        assert status == 200
        _, _, polled = await _get(host, port, "/debug/slo")
        snapshot = stack.manager.snapshot

        def slow_snapshot():
            time.sleep(2 * target)
            return snapshot()

        stack.manager.snapshot = slow_snapshot
        assert (await _get(host, port, "/queue"))[0] == 200
        _, _, slowed = await _get(host, port, "/debug/slo")
        return json.loads(polled), json.loads(slowed), stack.app.plane.access_tail()

    polled, slowed, tail = run_with_server(
        scenario, observability=True, latency_target_s=target, runner=runner
    )
    objectives = {o["objective"]: o for o in polled["objectives"]}
    assert polled["state"] == "ok"
    assert objectives["latency"]["bad_short"] == 0
    # the long-poll still counts for availability and is logged with its wait
    assert objectives["availability"]["events_short"] == 3
    (wait_line,) = [line for line in tail if line["route"] == "jobs.status"]
    assert wait_line["dur_ms"] >= 2 * target * 1000.0
    latency = {o["objective"]: o for o in slowed["objectives"]}["latency"]
    assert latency["bad_short"] == 1 and latency["budget_remaining"] < 1.0


def test_shed_requests_recorded_with_reason():
    async def scenario(stack, host, port):
        stack.app.gate = TenantGate(per_tenant=1, total=1)
        assert stack.app.gate.try_enter("filler")
        status, _, _ = await _get(host, port, "/queue")
        assert status == 429
        stack.app.gate.leave("filler")
        _, _, payload = await _get(host, port, "/debug/requests")
        return json.loads(payload)

    snap = run_with_server(scenario, observability=True)
    assert snap["shed_totals"]["tenant-gate"] == 1.0
    assert snap["errors"]["total"] == 0  # sheds are not availability errors


def test_debug_surface_404s_when_plane_disabled():
    async def scenario(stack, host, port):
        out = []
        for target in ("/debug/requests", "/debug/slo", "/debug/trace/x"):
            status, _, _ = await _get(host, port, target)
            out.append(status)
        return out

    assert run_with_server(scenario) == [404, 404, 404]


def test_flight_dump_endpoint_writes_valid_jsonl(tmp_path):
    dump_path = tmp_path / "flight.jsonl"

    async def scenario(stack, host, port):
        await _get(host, port, "/health")
        status, _, payload = await _get(
            host,
            port,
            "/debug/flight/dump",
            method="POST",
            body=json.dumps({"path": str(dump_path)}).encode(),
        )
        return status, json.loads(payload)

    status, payload = run_with_server(scenario, observability=True)
    assert status == 200
    assert payload["path"] == str(dump_path)
    assert payload["traces"] >= 1
    lines = [json.loads(l) for l in dump_path.read_text().splitlines() if l]
    assert len(lines) == payload["traces"]
    assert all("trace" in line and "spans" in line for line in lines)


# -- unhandled handler errors ----------------------------------------------------
def test_unhandled_error_returns_500_with_request_id_and_is_recorded():
    async def scenario(stack, host, port):
        def boom():
            raise RuntimeError("handler bug")

        stack.manager.snapshot = boom
        status, headers, _ = await _get(
            host, port, "/queue", headers=[("X-Request-Id", "doomed-1")]
        )
        del stack.manager.snapshot
        _, _, payload = await _get(host, port, "/debug/requests")
        return status, headers, json.loads(payload)

    status, headers, snap = run_with_server(scenario, observability=True)
    assert status == 500
    assert headers["x-request-id"] == "doomed-1"
    assert snap["errors"]["total"] == 1.0
    assert snap["flight"]["errors"] >= 1
    errored = [e for e in snap["recent"] if e.get("error")]
    assert errored and errored[0]["error"] == "RuntimeError"


# -- /health and /metrics enrichment ---------------------------------------------
def test_health_reports_slo_and_sites_when_plane_enabled():
    async def scenario(stack, host, port):
        _, _, payload = await _get(host, port, "/health")
        return json.loads(payload), stack.env

    payload, env = run_with_server(scenario, observability=True)
    assert payload["status"] == "ok"
    assert payload["slo"]["state"] == "ok"
    assert payload["sites"] == env.vds.health.states()


def test_metrics_gains_windowed_gauges_when_plane_enabled():
    async def scenario(stack, host, port):
        await _get(host, port, "/health")
        _, _, body = await _get(host, port, "/metrics")
        return body.decode()

    text = run_with_server(scenario, observability=True)
    assert "serve_request_rate" in text
    assert "serve_slo_burn_rate" in text
    assert "serve_slo_budget_remaining" in text


def test_plane_enable_is_reversible_and_telemetry_reset():
    async def scenario(stack, host, port):
        assert telemetry.enabled()
        await _get(host, port, "/health")
        return stack.plane.enabled

    assert run_with_server(scenario, observability=True) is True
    # The autouse fixture disables telemetry after each test; this test
    # documents that an enabled stack *does* turn the runtime on.


def test_user_labelled_families_stay_within_the_series_cap():
    """``user`` comes from outside the program: a job per user for more users
    than a family keeps leaves each user-labelled family at the cap plus
    ``__other__``."""
    users = MAX_SERIES + 6

    async def scenario(stack, host, port):
        for i in range(users):
            status, _, payload = await _get(
                host, port, "/jobs", method="POST",
                headers=[("Content-Type", "application/json")],
                body=json.dumps({"user": f"user{i:03d}", "cluster": TINY_NAME}).encode(),
            )
            assert status == 202
            job_id = json.loads(payload)["job_id"]
            status, _, _ = await _get(host, port, f"/jobs/{job_id}?wait=15")
            assert status == 200
        _, _, body = await _get(host, port, "/metrics")
        return parse_prometheus_text(body.decode())

    families = run_with_server(scenario, observability=True)
    for name in (
        "scheduler_submissions_total",
        "scheduler_wait_seconds_count",
        "scheduler_fair_share_debt",
    ):
        seen = {labels["user"] for labels, _ in families[name]}
        assert len(seen) == MAX_SERIES + 1, name
        assert OVERFLOW in seen, name
