"""Tests for horizontal job clustering."""

from __future__ import annotations

import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.pool import CondorPool, GridTopology
from repro.condor.simulator import GridSimulator, SimulationOptions
from repro.pegasus.clustering import cluster_workflow
from repro.pegasus.options import PlannerOptions
from repro.pegasus.planner import PegasusPlanner
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.tc.catalog import TransformationCatalog
from repro.workflow.abstract import AbstractJob, AbstractWorkflow
from repro.workflow.concrete import ClusteredComputeNode


def plan_fan(n=9, pools=("isi",)):
    rls = ReplicaLocationService()
    for site in (*pools, "store"):
        rls.add_site(site)
    tc = TransformationCatalog()
    for pool in pools:
        tc.install("galMorph", pool, "/bin/galmorph")
    tc.install("concatVOTable", "store", "/bin/concat")
    jobs = []
    for i in range(n):
        rls.register(f"g{i}.fit", f"gsiftp://store.grid/data/g{i}.fit", "store")
        jobs.append(AbstractJob(f"d{i}", "galMorph", (f"g{i}.fit",), (f"g{i}.txt",)))
    jobs.append(
        AbstractJob("cat", "concatVOTable", tuple(f"g{i}.txt" for i in range(n)), ("all.vot",))
    )
    planner = PegasusPlanner(
        rls, tc, PlannerOptions(output_site="store", site_selection="round-robin")
    )
    return planner.plan(AbstractWorkflow(jobs)), rls


class TestClusterWorkflow:
    def test_groups_by_site_and_size(self):
        plan, _ = plan_fan(9)
        clustered = cluster_workflow(plan.concrete, max_cluster_size=4)
        bundles = clustered.clustered_nodes()
        # 9 same-site galMorph jobs -> bundles of 4+4 and a singleton left plain
        assert sorted(len(b) for b in bundles) == [4, 4]
        assert clustered.total_compute_jobs() == plan.concrete.total_compute_jobs()

    def test_never_spans_sites(self):
        plan, _ = plan_fan(12, pools=("isi", "uwisc", "fnal"))
        clustered = cluster_workflow(plan.concrete, max_cluster_size=8)
        for bundle in clustered.clustered_nodes():
            assert len({m.site for m in bundle.members}) == 1

    def test_acyclic_and_dependencies_preserved(self):
        plan, _ = plan_fan(9)
        clustered = cluster_workflow(plan.concrete, max_cluster_size=3)
        clustered.validate()
        # the concat job still depends (transitively) on every bundle
        concat_ids = [
            node_id
            for node_id, payload in clustered.dag.payloads()
            if getattr(payload, "transformation", "") == "concatVOTable"
        ]
        assert len(concat_ids) == 1
        ancestors = clustered.dag.ancestors(concat_ids[0])
        for bundle in clustered.clustered_nodes():
            assert bundle.node_id in ancestors

    def test_transformation_filter(self):
        plan, _ = plan_fan(6)
        clustered = cluster_workflow(
            plan.concrete, max_cluster_size=3, transformations={"concatVOTable"}
        )
        assert clustered.clustered_nodes() == []  # only one concat: singleton

    def test_size_validation(self):
        plan, _ = plan_fan(4)
        with pytest.raises(ValueError):
            cluster_workflow(plan.concrete, max_cluster_size=0)

    def test_cluster_node_validation(self):
        plan, _ = plan_fan(4)
        member = plan.concrete.compute_nodes()[0]
        with pytest.raises(ValueError):
            ClusteredComputeNode("c", (member,), member.site)


class TestClusteredExecution:
    def test_simulator_amortises_overhead(self):
        plan, _ = plan_fan(12)
        topo = GridTopology()
        topo.add_pool(CondorPool("isi", slots=1))  # serialise everything
        opts = SimulationOptions(runtime_jitter=0.0, job_overhead_s=30.0)
        plain = GridSimulator(topo, opts).execute(plan.concrete)
        clustered_cw = cluster_workflow(plan.concrete, max_cluster_size=6)
        clustered = GridSimulator(topo, opts).execute(clustered_cw)
        assert plain.succeeded and clustered.succeeded
        # 12 jobs x 30s overhead vs 2 bundles x 30s: ~300s saved
        assert plain.makespan - clustered.makespan == pytest.approx(300.0, abs=1.0)

    def test_local_executor_runs_members(self):
        plan, rls = plan_fan(6)
        clustered_cw = cluster_workflow(plan.concrete, max_cluster_size=3)
        sites = {name: StorageSite(name) for name in ("isi", "store")}
        for i in range(6):
            sites["store"].put(sites["store"].pfn_for(f"g{i}.fit"), b"img")
        registry = ExecutableRegistry()
        registry.register("galMorph", lambda job, inputs: {job.outputs[0]: b"m"})
        registry.register(
            "concatVOTable",
            lambda job, inputs: {job.outputs[0]: b"|".join(inputs[l] for l in job.inputs)},
        )
        executor = LocalExecutor(sites, registry, rls)
        report = executor.execute(clustered_cw)
        assert report.succeeded
        assert sites["store"].get(sites["store"].pfn_for("all.vot")) == b"m|m|m|m|m|m"
        # provenance recorded per member, not per bundle
        assert len(executor.provenance.lineage("all.vot")) == 7


class TestClusteredSubmitFiles:
    def test_seqexec_submit_generated(self):
        from repro.pegasus.submit import generate_submit_files

        plan, _ = plan_fan(6)
        clustered_cw = cluster_workflow(plan.concrete, max_cluster_size=3)
        submit = generate_submit_files(clustered_cw, dag_name="clustered")
        bundle_ids = [b.node_id for b in clustered_cw.clustered_nodes()]
        assert bundle_ids
        for bundle_id in bundle_ids:
            text = submit.submit_files[bundle_id]
            assert "seqexec" in text
            assert text.count("# member ") == 3
        assert submit.dag_file.count("JOB ") == len(clustered_cw)


class TestClusteringProperties:
    def test_reachability_preserved_random_plans(self):
        """Clustering must preserve every ordering constraint: if node A
        preceded node B in the original workflow, A's bundle still precedes
        B's bundle (or they share one)."""
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            n = draw(st.integers(3, 20))
            pools = draw(st.sampled_from([("isi",), ("isi", "uwisc"), ("isi", "uwisc", "fnal")]))
            size = draw(st.integers(2, 6))
            return n, pools, size

        @settings(max_examples=25, deadline=None)
        @given(cases())
        def check(case):
            n, pools, size = case
            plan, _ = plan_fan(n, pools=pools)
            original = plan.concrete
            clustered = cluster_workflow(original, max_cluster_size=size)
            clustered.validate()
            # map original node -> clustered node
            mapping = {}
            for node_id, payload in clustered.dag.payloads():
                if isinstance(payload, ClusteredComputeNode):
                    for member in payload.members:
                        mapping[member.node_id] = node_id
                else:
                    mapping[node_id] = node_id
            # reachability: every original edge ordering survives
            for parent, child in original.dag.edges():
                mp, mc = mapping[parent], mapping[child]
                if mp == mc:
                    continue  # same bundle: seqexec order handles it
                assert mp in ({mc} | clustered.dag.ancestors(mc)), (
                    f"{parent}->{child} ordering lost after clustering"
                )
            assert clustered.total_compute_jobs() == original.total_compute_jobs()

        check()
