"""Tests for the real local executor."""

from __future__ import annotations

import time

import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.core.errors import ExecutionError
from repro.core.provenance import ProvenanceStore
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.utils.events import EventLog
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import (
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)


def environment():
    sites = {name: StorageSite(name) for name in ("A", "B", "U")}
    rls = ReplicaLocationService()
    for name in sites:
        rls.add_site(name)
    registry = ExecutableRegistry()

    def double(job: AbstractJob, inputs: dict[str, bytes]) -> dict[str, bytes]:
        (content,) = inputs.values()
        return {job.outputs[0]: content * 2}

    registry.register("double", double)
    return sites, rls, registry


def figure4_workflow(sites) -> ConcreteWorkflow:
    """move b A->B; run double@B; move out B->U; register out@U."""
    cw = ConcreteWorkflow()
    cw.add(
        TransferNode(
            "x1", "b", TransferKind.STAGE_IN, "A", sites["A"].pfn_for("b"), "B", sites["B"].pfn_for("b")
        )
    )
    cw.add(
        ComputeNode("j1", AbstractJob("d2", "double", ("b",), ("c",)), "B", "/bin/double")
    )
    cw.add(
        TransferNode(
            "x2", "c", TransferKind.STAGE_OUT, "B", sites["B"].pfn_for("c"), "U", sites["U"].pfn_for("c")
        )
    )
    cw.add(RegistrationNode("r1", "c", sites["U"].pfn_for("c"), "U"))
    cw.link("x1", "j1")
    cw.link("j1", "x2")
    cw.link("x2", "r1")
    return cw


class TestRegistry:
    def test_duplicate_rejected(self):
        registry = ExecutableRegistry()
        registry.register("t", lambda j, i: {})
        with pytest.raises(ValueError):
            registry.register("t", lambda j, i: {})

    def test_missing_raises(self):
        with pytest.raises(ExecutionError):
            ExecutableRegistry().get("nope")


class TestLocalExecution:
    def test_figure4_end_to_end(self):
        sites, rls, registry = environment()
        sites["A"].put(sites["A"].pfn_for("b"), b"xy")
        executor = LocalExecutor(sites, registry, rls)
        report = executor.execute(figure4_workflow(sites))
        assert report.succeeded
        assert sites["U"].get(sites["U"].pfn_for("c")) == b"xyxy"
        assert [r.site for r in rls.lookup("c")] == ["U"]
        assert report.transfer_counts == {"stage-in": 1, "stage-out": 1}
        assert report.bytes_moved == 2 + 4

    def test_provenance_recorded(self):
        sites, rls, registry = environment()
        sites["A"].put(sites["A"].pfn_for("b"), b"xy")
        provenance = ProvenanceStore()
        executor = LocalExecutor(sites, registry, rls, provenance=provenance)
        executor.execute(figure4_workflow(sites))
        record = provenance.producer("c")
        assert record is not None
        assert record.transformation == "double"
        assert record.site == "B"
        assert record.success

    def test_missing_input_fails_node_not_run(self):
        sites, rls, registry = environment()
        # 'b' never staged: transfer fails (source file absent)
        executor = LocalExecutor(sites, registry, rls, max_retries=0)
        report = executor.execute(figure4_workflow(sites))
        assert not report.succeeded
        assert "x1" in report.failed_nodes
        assert "j1" in report.unrunnable_nodes

    def test_input_via_rls_replica_at_site(self):
        """A compute node whose input was never staged (local replica) reads
        it through the RLS mapping — the skipped-stage-in path."""
        sites, rls, registry = environment()
        odd_pfn = "gsiftp://B.grid/other/b"
        sites["B"].put(odd_pfn, b"z")
        rls.register("b", odd_pfn, "B")
        cw = ConcreteWorkflow()
        cw.add(ComputeNode("j1", AbstractJob("d", "double", ("b",), ("c",)), "B", "/bin/d"))
        report = LocalExecutor(sites, registry, rls).execute(cw)
        assert report.succeeded
        assert sites["B"].get(sites["B"].pfn_for("c")) == b"zz"

    def test_executable_must_produce_declared_outputs(self):
        sites, rls, registry = environment()

        def bad(job, inputs):
            return {}

        registry.register("bad", bad)
        cw = ConcreteWorkflow()
        cw.add(ComputeNode("j1", AbstractJob("d", "bad", (), ("c",)), "B", "/bin/bad"))
        report = LocalExecutor(sites, registry, rls, max_retries=0).execute(cw)
        assert not report.succeeded

    def test_retries_transient_failure(self):
        sites, rls, registry = environment()
        attempts = {"n": 0}

        def flaky(job, inputs):
            attempts["n"] += 1
            if attempts["n"] < 2:
                raise RuntimeError("transient")
            return {job.outputs[0]: b"ok"}

        registry.register("flaky", flaky)
        cw = ConcreteWorkflow()
        cw.add(ComputeNode("j1", AbstractJob("d", "flaky", (), ("c",)), "B", "/bin/f"))
        report = LocalExecutor(sites, registry, rls, max_retries=2).execute(cw)
        assert report.succeeded
        assert report.retries == 1

    def test_independent_chains_all_complete(self):
        sites, rls, registry = environment()
        report = LocalExecutor(sites, registry, rls).execute(chains_workflow(sites, 6))
        assert report.succeeded
        assert len(report.compute_runs) == 6
        assert [r.site for r in rls.lookup("o5")] == ["B"]


def chains_workflow(sites, n: int, transformation: str = "double") -> ConcreteWorkflow:
    """``n`` independent chains: stage in@A->B; double@B; register out@B."""
    cw = ConcreteWorkflow()
    for i in range(n):
        sites["A"].put(sites["A"].pfn_for(f"in{i}"), b"d")
        cw.add(
            TransferNode(
                f"x{i}", f"in{i}", TransferKind.STAGE_IN,
                "A", sites["A"].pfn_for(f"in{i}"), "B", sites["B"].pfn_for(f"in{i}"),
            )
        )
        cw.add(
            ComputeNode(
                f"j{i}",
                AbstractJob(f"d{i}", transformation, (f"in{i}",), (f"o{i}",)),
                "B",
                "/bin/d",
            )
        )
        cw.add(RegistrationNode(f"r{i}", f"o{i}", sites["B"].pfn_for(f"o{i}"), "B"))
        cw.link(f"x{i}", f"j{i}")
        cw.link(f"j{i}", f"r{i}")
    return cw


class TestDeterministicExecution:
    """A DAG runs on the calling thread, so its schedule is a function of
    the DAG alone: node order and event sequence repeat run to run."""

    @staticmethod
    def run_once():
        sites, rls, registry = environment()

        def staggered(job, inputs):
            time.sleep(0.004 * (4 - int(job.job_id[1:])))  # earlier chains are slower
            (content,) = inputs.values()
            return {job.outputs[0]: content * 2}

        registry.register("staggered", staggered)
        events = EventLog()
        executor = LocalExecutor(sites, registry, rls, event_log=events)
        report = executor.execute(
            chains_workflow(sites, 4, "staggered"), forced_failures={"j1": 1}
        )
        return report, [(e.source, e.kind, e.detail) for e in events]

    def test_node_order_and_events_repeat(self):
        first, first_events = self.run_once()
        second, second_events = self.run_once()
        assert first.succeeded and first.retries == 1
        # start order, whatever the bodies cost: the retried j1 runs last of its wave
        order = ["x0", "x1", "x2", "x3", "j0", "j2", "j3", "r0", "j1", "r2", "r3", "r1"]
        assert [r.node_id for r in first.runs] == order
        assert [r.node_id for r in second.runs] == order
        assert [r.attempts for r in first.runs] == [r.attempts for r in second.runs]
        assert [kind for _, kind, _ in first_events] == ["node-failed"]
        assert first_events == second_events

    def test_node_spans_parent_to_execute_span(self, enabled_telemetry):
        report, _ = self.run_once()
        spans = enabled_telemetry.get_tracer().spans()
        (execute,) = [s for s in spans if s["name"] == "condor.execute"]
        nodes = [s for s in spans if s["name"] == "condor.node"]
        assert {s["attrs"]["node"] for s in nodes} == {r.node_id for r in report.runs}
        assert {s["parent"] for s in nodes} == {execute["span"]}
