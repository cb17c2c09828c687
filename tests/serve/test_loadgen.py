"""Loadgen tests: determinism, SLO classification."""

from __future__ import annotations

import asyncio

import pytest

from repro.serve.loadgen import (
    RequestOutcome,
    Scenario,
    ScenarioReport,
    herd_scenario,
    plan_requests,
    run_scenario,
    slow_client_scenario,
    steady_scenario,
)

from tests.serve.conftest import TINY_DEC, TINY_RA, TINY_NAME, run_with_server

CLUSTERS = [(TINY_NAME, TINY_RA, TINY_DEC)]


class TestPlanning:
    def test_same_seed_same_plan(self):
        a = plan_requests(steady_scenario(requests=60, seed=11), CLUSTERS)
        b = plan_requests(steady_scenario(requests=60, seed=11), CLUSTERS)
        assert a == b

    def test_different_seed_different_plan(self):
        a = plan_requests(steady_scenario(requests=60, seed=11), CLUSTERS)
        b = plan_requests(steady_scenario(requests=60, seed=12), CLUSTERS)
        assert a != b

    def test_poisson_arrivals_are_monotone_and_spread(self):
        plans = plan_requests(steady_scenario(requests=200, rate=100.0), CLUSTERS)
        times = [p.at for p in plans]
        assert times == sorted(times)
        assert times[-1] > 0.5  # ~200 arrivals at 100 rps span ~2s

    def test_herd_releases_everything_at_t0(self):
        plans = plan_requests(herd_scenario(requests=50), CLUSTERS)
        assert all(p.at == 0.0 for p in plans)

    def test_slow_every_marks_the_right_fraction(self):
        scenario = slow_client_scenario(requests=100)
        plans = plan_requests(scenario, CLUSTERS)
        assert sum(p.slow for p in plans) == 20

    def test_tenants_rotate_evenly(self):
        plans = plan_requests(steady_scenario(requests=99), CLUSTERS)
        per_tenant = {t: 0 for t in ("alice", "bob", "carol")}
        for p in plans:
            per_tenant[p.tenant] += 1
        assert set(per_tenant.values()) == {33}

    def test_mix_produces_all_kinds(self):
        plans = plan_requests(steady_scenario(requests=200), CLUSTERS)
        kinds = {p.kind for p in plans}
        assert kinds == {"cone", "sia", "submit", "status"}
        submit = next(p for p in plans if p.kind == "submit")
        assert submit.method == "POST" and submit.body

    def test_no_clusters_is_an_error(self):
        with pytest.raises(ValueError):
            plan_requests(steady_scenario(requests=5), [])


def outcome(status: int, *, slow: bool = False, latency: float = 0.01):
    return RequestOutcome(
        kind="cone",
        tenant="alice",
        status=status,
        latency=latency,
        received=100,
        slow=slow,
    )


class TestScenarioReport:
    def make(self, outcomes) -> ScenarioReport:
        return ScenarioReport(
            scenario=steady_scenario(requests=len(outcomes)),
            outcomes=outcomes,
            wall_seconds=2.0,
        )

    def test_classification(self):
        report = self.make(
            [
                outcome(200),
                outcome(202),
                outcome(429),
                outcome(503),
                outcome(404),  # client error: neither completed, shed nor failed
                outcome(500),
                outcome(0),
            ]
        )
        d = report.as_dict()
        assert d["completed"] == 2
        assert d["shed"] == 2
        assert d["failures"] == 2
        assert d["shed_rate"] == pytest.approx(2 / 7)
        assert d["throughput_rps"] == pytest.approx(1.0)

    def test_slow_readers_excluded_from_latency_slo(self):
        report = self.make(
            [outcome(200, latency=0.01), outcome(200, slow=True, latency=9.0)]
        )
        assert report.latencies_ms() == [pytest.approx(10.0)]
        assert report.latencies_ms(include_slow=True)[-1] == pytest.approx(9000.0)
        assert report.as_dict()["p99_ms"] == pytest.approx(10.0)

    def test_by_kind_breakdown(self):
        report = self.make([outcome(200), outcome(429)])
        by_kind = report.as_dict()["by_kind"]
        assert by_kind["cone"] == {
            "requests": 2,
            "completed": 1,
            "shed": 1,
            "failures": 0,
        }

    def test_summary_is_one_line(self):
        report = self.make([outcome(200)])
        assert "\n" not in report.summary()
        assert "steady-poisson" in report.summary()

    def test_id_mismatch_is_its_own_failure_class(self):
        bad = RequestOutcome(
            kind="cone", tenant="alice", status=200, latency=0.01,
            received=100, slow=False, id_mismatch=True,
        )
        report = self.make([outcome(200), bad])
        d = report.as_dict()
        # A healthy status with the wrong echoed id still fails the run.
        assert d["id_mismatches"] == 1
        assert d["failures"] == 1
        assert report.failures == [bad]


class TestRequestIdEcho:
    def test_planned_requests_carry_deterministic_ids(self):
        plans = plan_requests(steady_scenario(requests=5, seed=0x2003), CLUSTERS)
        assert [p.request_id for p in plans] == [
            f"lg2003-{i:05d}" for i in range(5)
        ]

    def test_live_run_asserts_the_echo(self):
        scenario = steady_scenario(requests=20, rate=200.0, seed=6)

        async def drive(stack, host, port):
            report = await run_scenario(host, port, scenario, CLUSTERS)
            assert report.as_dict()["id_mismatches"] == 0
            assert report.failures == []
            # drain queued submits so teardown is quick
            deadline = asyncio.get_running_loop().time() + 30
            while stack.manager.queue_depth() or stack.manager.running_jobs():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)

        run_with_server(drive)


class TestEndToEnd:
    def test_small_open_loop_run_has_no_failures(self):
        scenario = Scenario(
            name="tiny-e2e",
            requests=30,
            rate=200.0,
            slow_every=10,
            slow_read_delay=0.02,
            seed=5,
        )

        async def drive(stack, host, port):
            report = await run_scenario(host, port, scenario, CLUSTERS)
            d = report.as_dict()
            assert d["requests"] == 30
            assert d["failures"] == 0, [o.error for o in report.failures]
            assert d["completed"] + d["shed"] == 30
            assert d["completed"] > 0
            # drain whatever the submits queued so teardown is quick
            deadline = asyncio.get_running_loop().time() + 30
            while stack.manager.queue_depth() or stack.manager.running_jobs():
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)

        run_with_server(drive)
