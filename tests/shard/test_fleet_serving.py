"""The sharded serving stack: ready line, HTTP aggregation, shard columns."""

from __future__ import annotations

import asyncio
import json
import re

import pytest

from repro.cli import build_parser
from repro.scheduler.runner import PortalJobRunner
from repro.serve.harness import (
    build_fleet_serving_stack,
    build_serving_stack,
    ready_line,
)
from repro.serve.loadgen import http_request
from repro.serve.top import render_dashboard
from repro.shard.worker import _build_manager

from tests.serve.conftest import build_tiny_stack, tiny_cluster
from tests.shard.conftest import CLUSTERS, MODELS

READY_RE = re.compile(
    r"^repro-serve-ready port=(\d+) url=(\S+)(?: shards=(\d+))?$"
)


class TestRealRunnerIsTheDefault:
    """Every stack the product builds runs the portal flow; a test double
    is only ever an object an in-process test injects."""

    def test_serve_verbs_and_builders_default_to_the_portal_runner(self, tmp_path):
        parser = build_parser()
        for argv in (["serve-http", "--runner", "portal"],
                     ["serve-fleet", "--runner", "portal"], ["loadgen"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        with pytest.raises(ValueError):
            build_serving_stack(runner="synthetic")

        single = build_serving_stack(clusters=[tiny_cluster()], port=0)
        sharded = build_fleet_serving_stack(str(tmp_path / "stack"), shards=1, port=0)
        assert isinstance(single.manager.runner, PortalJobRunner)
        (config,) = sharded.manager._configs.values()  # noqa: SLF001
        worker = _build_manager(config)  # what worker_main would serve
        assert isinstance(worker.runner, PortalJobRunner)
        # same job body, same slot pool as the single-manager verb ...
        assert worker.leases.total_slots == single.manager.leases.total_slots == 48
        assert worker.slots_per_job == single.manager.slots_per_job
        # ... and the front door sheds with the bounds the workers admit with
        gate, admission = sharded.app.gate, worker.admission
        assert (gate.per_tenant, gate.total) == (
            admission.max_active_per_user, admission.max_queue_depth
        )
        assert sharded.manager.admission == admission


class TestReadyLine:
    def test_single_manager_stack_omits_shards(self):
        async def scenario():
            async with build_tiny_stack(port=0) as stack:
                return ready_line(stack), stack.server.port

        line, port = asyncio.run(scenario())
        match = READY_RE.match(line)
        assert match, line
        assert int(match.group(1)) == port and port != 0
        assert match.group(3) is None

    def test_fleet_stack_reports_shard_count(self, tmp_path):
        async def scenario():
            async with build_fleet_serving_stack(
                str(tmp_path / "fleet"), shards=2, port=0, clusters=MODELS,
            ) as stack:
                return ready_line(stack), stack.server.port

        line, port = asyncio.run(scenario())
        match = READY_RE.match(line)
        assert match, line
        assert int(match.group(1)) == port
        assert match.group(3) == "2"


class TestFleetHttpSurface:
    def test_health_queue_metrics_aggregate_the_fleet(self, tmp_path):
        async def scenario():
            async with build_fleet_serving_stack(
                str(tmp_path / "fleet"), shards=2, port=0, clusters=MODELS,
            ) as stack:
                host, port = stack.server.host, stack.server.port
                status, _, body = await http_request(
                    host, port, "POST", "/jobs",
                    headers=[("X-Tenant", "alice"), ("Content-Type", "application/json")],
                    body=json.dumps({"cluster": CLUSTERS[0]}).encode(),
                )
                assert status == 202
                job = json.loads(body)
                while True:
                    _, _, poll = await http_request(host, port, "GET", f"/jobs/{job['job_id']}")
                    if json.loads(poll)["terminal"]:
                        break
                    await asyncio.sleep(0.01)
                _, _, health = await http_request(host, port, "GET", "/health")
                _, _, queue = await http_request(host, port, "GET", "/queue")
                _, _, metrics = await http_request(host, port, "GET", "/metrics")
                return job, json.loads(health), json.loads(queue), metrics.decode()

        job, health, queue, metrics = asyncio.run(scenario())
        assert job["shard"] in {"s0", "s1"}
        assert job["job_id"].startswith(f"{job['shard']}-job-")

        fleet = health["shards"]
        assert fleet["alive"] == 2 and fleet["dead"] == []
        assert set(fleet["shards"]) == {"s0", "s1"}
        assert health["status"] == "ok"

        assert queue["sharded"] is True
        assert set(queue["shards"]) == {"s0", "s1"}
        assert any(j["shard"] == job["shard"] for j in queue["jobs"])
        assert metrics  # exposition renders even with telemetry off


class TestDashboardShardRow:
    HEALTH = {
        "queued": 1,
        "running": 2,
        "inflight": 3,
        "status": "degraded",
        "shards": {
            "alive": 1,
            "dead": ["s1"],
            "relocated_jobs": 3,
            "shards": {
                "s0": {"alive": True, "queued": 4, "running": 1},
                "s1": {"alive": False},
            },
        },
    }

    def test_renders_live_dead_and_relocations(self):
        frame = render_dashboard({}, {}, self.HEALTH)
        line = next(l for l in frame.splitlines() if l.startswith("shards"))
        assert "s0 q4/r1" in line
        assert "s1 DEAD" in line
        assert "relocated 3" in line

    def test_unsharded_health_has_no_shard_row(self):
        frame = render_dashboard({}, {}, {"queued": 0})
        assert not any(l.startswith("shards") for l in frame.splitlines())
