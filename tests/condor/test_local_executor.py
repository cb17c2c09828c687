"""Tests for the real local executor."""

from __future__ import annotations

import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.core.errors import ExecutionError
from repro.core.provenance import ProvenanceStore
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
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

    def test_parallel_independent_jobs(self):
        sites, rls, registry = environment()
        for i in range(6):
            sites["A"].put(sites["A"].pfn_for(f"in{i}"), b"d")
            rls.register(f"in{i}", sites["A"].pfn_for(f"in{i}"), "A")
        cw = ConcreteWorkflow()
        for i in range(6):
            cw.add(
                TransferNode(
                    f"x{i}", f"in{i}", TransferKind.STAGE_IN,
                    "A", sites["A"].pfn_for(f"in{i}"), "B", sites["B"].pfn_for(f"in{i}"),
                )
            )
            cw.add(
                ComputeNode(
                    f"j{i}", AbstractJob(f"d{i}", "double", (f"in{i}",), (f"o{i}",)), "B", "/bin/d"
                )
            )
            cw.link(f"x{i}", f"j{i}")
        report = LocalExecutor(sites, registry, rls, max_workers=4).execute(cw)
        assert report.succeeded
        assert len(report.compute_runs) == 6
