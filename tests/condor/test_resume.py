"""Tests for rescue-DAG resume in DAGMan and both executors."""

from __future__ import annotations

import pytest

from repro.condor.dagman import DagmanState, NodeStatus
from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.pool import CondorPool, GridTopology
from repro.condor.rescue import completed_nodes
from repro.condor.simulator import GridSimulator, SimulationOptions
from repro.core.errors import ExecutionError
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import ComputeNode, ConcreteWorkflow
from repro.workflow.dag import DAG


def chain_dag(n=4) -> DAG:
    dag: DAG[None] = DAG()
    for i in range(n):
        dag.add_node(f"n{i}", None)
    for i in range(n - 1):
        dag.add_edge(f"n{i}", f"n{i+1}")
    return dag


class TestDagmanResume:
    def test_completed_nodes_skipped(self):
        state = DagmanState(chain_dag(), completed={"n0", "n1"})
        assert state.status["n0"] is NodeStatus.DONE
        assert state.status["n2"] is NodeStatus.READY  # released by resume
        assert state.ready_nodes() == ["n2"]

    def test_all_completed_is_complete(self):
        state = DagmanState(chain_dag(2), completed={"n0", "n1"})
        assert state.ready_nodes() == [] and state.succeeded()

    def test_unknown_completed_rejected(self):
        with pytest.raises(ExecutionError):
            DagmanState(chain_dag(), completed={"ghost"})

    def test_partial_parents(self):
        dag: DAG[None] = DAG()
        for name in "abc":
            dag.add_node(name, None)
        dag.add_edge("a", "c")
        dag.add_edge("b", "c")
        state = DagmanState(dag, completed={"a"})
        assert state.status["c"] is NodeStatus.PENDING
        state.mark_running("b")
        assert state.mark_success("b") == ["c"]


def serial_compute_workflow(n=4) -> ConcreteWorkflow:
    cw = ConcreteWorkflow()
    prev = None
    for i in range(n):
        node = ComputeNode(f"j{i}", AbstractJob(f"d{i}", "galMorph", (), (f"o{i}",)), "isi", "/bin/x")
        cw.add(node)
        if prev:
            cw.link(prev, node.node_id)
        prev = node.node_id
    return cw


class TestSimulatorResume:
    def test_failed_run_then_resume(self):
        cw = serial_compute_workflow(4)
        topo = GridTopology()
        topo.add_pool(CondorPool("isi", slots=2))
        crash = GridSimulator(
            topo, SimulationOptions(runtime_jitter=0.0, forced_failures={"j2": 99}, max_retries=0)
        )
        report = crash.execute(cw)
        assert not report.succeeded
        done = completed_nodes(report)
        assert done == {"j0", "j1"}

        # fix the problem and resubmit the rescue DAG
        healthy = GridSimulator(topo, SimulationOptions(runtime_jitter=0.0))
        resumed = healthy.execute(cw, completed=done)
        assert resumed.succeeded
        # only the remaining two jobs ran
        assert {r.node_id for r in resumed.runs} == {"j2", "j3"}
        assert resumed.makespan == pytest.approx(2 * 12.0, rel=1e-6)


class TestLocalExecutorResume:
    def test_resume_skips_done_work(self):
        sites = {"isi": StorageSite("isi")}
        rls = ReplicaLocationService()
        rls.add_site("isi")
        registry = ExecutableRegistry()
        calls: list[str] = []

        def body(job, inputs):
            calls.append(job.job_id)
            return {job.outputs[0]: b"x"}

        registry.register("galMorph", body)
        cw = serial_compute_workflow(3)
        executor = LocalExecutor(sites, registry, rls)
        report = executor.execute(cw, completed={"j0"})
        assert report.succeeded
        assert calls == ["d1", "d2"]
