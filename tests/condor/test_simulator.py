"""Tests for the discrete-event Grid simulator."""

from __future__ import annotations

import pytest

from repro.condor.pool import CondorPool, GridTopology
from repro.condor.rescue import completed_nodes, rescue_dag_text
from repro.condor.simulator import GridSimulator, SimulationOptions
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import (
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)


def topo(slots=2, failure_rate=0.0) -> GridTopology:
    t = GridTopology()
    t.add_pool(CondorPool("isi", slots=slots, speed=1.0, failure_rate=failure_rate))
    t.add_pool(CondorPool("fnal", slots=slots, speed=2.0, failure_rate=failure_rate))
    return t


def compute(node_id, site="isi", transformation="galMorph", inputs=(), outputs=None):
    outputs = outputs if outputs is not None else (f"{node_id}.out",)
    return ComputeNode(
        node_id=node_id,
        job=AbstractJob(node_id, transformation, tuple(inputs), tuple(outputs)),
        site=site,
        executable="/bin/x",
    )


def serial_workflow(n=3, site="isi") -> ConcreteWorkflow:
    cw = ConcreteWorkflow()
    prev = None
    for i in range(n):
        node = compute(f"j{i}", site=site)
        cw.add(node)
        if prev:
            cw.link(prev, node.node_id)
        prev = node.node_id
    return cw


class TestPoolValidation:
    def test_bad_pool_params(self):
        with pytest.raises(ValueError):
            CondorPool("x", slots=0)
        with pytest.raises(ValueError):
            CondorPool("x", speed=0)
        with pytest.raises(ValueError):
            CondorPool("x", failure_rate=1.0)

    def test_duplicate_pool(self):
        t = topo()
        with pytest.raises(ValueError):
            t.add_pool(CondorPool("isi"))

    def test_transfer_time_model(self):
        t = topo()
        assert t.transfer_time("isi", "isi", 10**9) == 0.0
        time = t.transfer_time("isi", "fnal", 10 * 1024 * 1024)
        assert time == pytest.approx(t.default_latency_s + 1.0, rel=0.01)

    def test_default_demo_pools(self):
        demo = GridTopology.default_demo()
        assert set(demo.pools) == {"isi", "uwisc", "fnal"}


class TestExecution:
    def test_serial_chain_runs_in_order(self):
        sim = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0))
        report = sim.execute(serial_workflow(3))
        assert report.succeeded
        runs = {r.node_id: r for r in report.runs}
        assert runs["j0"].end <= runs["j1"].start + 1e-9
        assert runs["j1"].end <= runs["j2"].start + 1e-9
        assert report.makespan == pytest.approx(3 * 12.0, rel=1e-6)

    def test_slots_limit_parallelism(self):
        cw = ConcreteWorkflow()
        for i in range(4):
            cw.add(compute(f"j{i}", site="isi"))
        # 2 slots, 4 independent 12s jobs -> 24s
        sim = GridSimulator(topo(slots=2), SimulationOptions(runtime_jitter=0.0))
        report = sim.execute(cw)
        assert report.makespan == pytest.approx(24.0, rel=1e-6)

    def test_faster_pool_shorter_runtime(self):
        slow = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0)).execute(
            serial_workflow(1, site="isi")
        )
        fast = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0)).execute(
            serial_workflow(1, site="fnal")
        )
        assert fast.makespan == pytest.approx(slow.makespan / 2)

    def test_transfer_timing_and_accounting(self):
        cw = ConcreteWorkflow()
        cw.add(
            TransferNode(
                "x1", "b", TransferKind.STAGE_IN, "isi", "p1", "fnal", "p2", size_bytes=10 * 1024 * 1024
            )
        )
        sim = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0))
        report = sim.execute(cw)
        assert report.succeeded
        assert report.transfer_counts == {"stage-in": 1}
        assert report.bytes_moved == 10 * 1024 * 1024
        assert report.makespan == pytest.approx(0.2 + 1.0, rel=0.01)

    def test_registration_fast(self):
        cw = ConcreteWorkflow()
        cw.add(RegistrationNode("r1", "c", "pfn", "isi"))
        report = GridSimulator(topo()).execute(cw)
        assert report.succeeded
        assert report.makespan < 0.1

    def test_deterministic_given_seed(self):
        a = GridSimulator(topo(), SimulationOptions(seed=9)).execute(serial_workflow(5))
        b = GridSimulator(topo(), SimulationOptions(seed=9)).execute(serial_workflow(5))
        assert a.makespan == b.makespan

    def test_compute_on_non_pool_site_allowed(self):
        cw = ConcreteWorkflow()
        cw.add(compute("j0", site="storage-only"))
        report = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0)).execute(cw)
        assert report.succeeded


class TestFailureInjection:
    def test_forced_failure_retried(self):
        sim = GridSimulator(
            topo(),
            SimulationOptions(runtime_jitter=0.0, forced_failures={"j0": 1}, max_retries=2),
        )
        report = sim.execute(serial_workflow(2))
        assert report.succeeded
        assert report.retries == 1

    def test_forced_failure_exhausts_retries(self):
        sim = GridSimulator(
            topo(),
            SimulationOptions(runtime_jitter=0.0, forced_failures={"j0": 10}, max_retries=2),
        )
        report = sim.execute(serial_workflow(3))
        assert not report.succeeded
        assert report.failed_nodes == ("j0",)
        assert set(report.unrunnable_nodes) == {"j1", "j2"}

    def test_random_failures_mostly_recovered(self):
        cw = ConcreteWorkflow()
        for i in range(30):
            cw.add(compute(f"j{i}", site="isi"))
        sim = GridSimulator(topo(slots=8, failure_rate=0.2), SimulationOptions(max_retries=5))
        report = sim.execute(cw)
        assert report.succeeded
        assert report.retries > 0

    def test_rescue_dag_marks_done(self):
        cw = serial_workflow(3)
        sim = GridSimulator(
            topo(), SimulationOptions(forced_failures={"j1": 10}, max_retries=0)
        )
        report = sim.execute(cw)
        text = rescue_dag_text(cw, report)
        assert "JOB j0 j0.sub DONE" in text
        assert "JOB j1 j1.sub\n" in text or text.endswith("JOB j1 j1.sub")
        assert completed_nodes(report) == {"j0"}

    def test_jobs_per_site(self):
        cw = ConcreteWorkflow()
        cw.add(compute("a", site="isi"))
        cw.add(compute("b", site="fnal"))
        report = GridSimulator(topo()).execute(cw)
        assert report.jobs_per_site() == {"isi": 1, "fnal": 1}
