"""The ``serve_*`` vocabulary on ``/metrics`` is pinned.

Mixed traffic — an ok request, a shed, a 4xx, a long-poll and a request
the server could not parse — exercises every path that writes a served
request, and the scrape after it must carry exactly these family names
with exactly these label keys.  A rename is then a deliberate edit of
this list, never a drift.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.app import TenantGate
from repro.serve.loadgen import http_request
from repro.telemetry.exporters import parse_prometheus_text
from tests.serve.conftest import TINY_NAME, run_with_server

#: family name (histograms by their base name) → label keys (``le`` aside)
SERVE_VOCABULARY = {
    "serve_error_rate": {"window"},
    "serve_latency_window_seconds": {"quantile"},
    "serve_open_connections": set(),
    "serve_request_rate": {"window"},
    "serve_request_seconds": {"route"},
    "serve_requests_total": {"route", "status"},
    "serve_shed_total": {"reason"},
    "serve_slo_budget_remaining": {"objective"},
    "serve_slo_burn_rate": {"objective", "window"},
}


async def _unparsed(host: str, port: int) -> bytes:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"NOT-A-REQUEST\r\n\r\n")
    await writer.drain()
    head = await reader.read(64)
    writer.close()
    await writer.wait_closed()
    return head


def _vocabulary(text: str) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for name, samples in parse_prometheus_text(text).items():
        if not name.startswith("serve_"):
            continue
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] == "serve_request_seconds":
                name = name[: -len(suffix)]
        keys = out.setdefault(name, set())
        for labels, _ in samples:
            keys.update(k for k in labels if k != "le")
    return out


def test_serve_families_and_label_keys_are_pinned():
    async def scenario(stack, host, port):
        assert (await http_request(host, port, "GET", "/health"))[0] == 200
        assert (await http_request(host, port, "GET", "/no/such/route"))[0] == 404
        status, headers, _ = await http_request(
            host, port, "POST", "/jobs",
            headers=[("X-Tenant", "alice"), ("Content-Type", "application/json")],
            body=json.dumps({"cluster": TINY_NAME}).encode(),
        )
        assert status == 202
        status, _, _ = await http_request(
            host, port, "GET", f"{headers['location']}?wait=15",
            headers=[("X-Tenant", "alice")],
        )
        assert status == 200
        gate = stack.app.gate
        stack.app.gate = TenantGate(per_tenant=1, total=1)
        assert stack.app.gate.try_enter("filler")
        assert (await http_request(host, port, "GET", "/queue"))[0] == 429
        stack.app.gate = gate
        assert (await _unparsed(host, port)).startswith(b"HTTP/1.1 400")
        _, _, body = await http_request(host, port, "GET", "/metrics")
        return body.decode()

    text = run_with_server(scenario, observability=True)
    assert _vocabulary(text) == SERVE_VOCABULARY
