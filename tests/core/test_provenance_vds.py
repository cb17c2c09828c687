"""Tests for provenance and the VirtualDataSystem facade."""

from __future__ import annotations

import pytest

from repro.core import VirtualDataSystem
from repro.core.errors import ExecutionError
from repro.core.provenance import InvocationRecord, ProvenanceStore
from repro.pegasus.options import PlannerOptions


def record(job_id, outputs, inputs=(), success=True):
    return InvocationRecord(
        job_id=job_id,
        transformation="t",
        site="isi",
        start_time=0.0,
        end_time=1.0,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        success=success,
    )


class TestProvenanceStore:
    def test_producer_lookup(self):
        store = ProvenanceStore()
        store.record(record("j1", ["a"]))
        assert store.producer("a").job_id == "j1"
        assert store.producer("zz") is None

    def test_failed_invocations_not_indexed(self):
        store = ProvenanceStore()
        store.record(record("j1", ["a"], success=False))
        assert store.producer("a") is None
        assert [r.job_id for r in store._records] == ["j1"]  # noqa: SLF001 - recorded, not indexed

    def test_lineage_walks_chain(self):
        store = ProvenanceStore()
        store.record(record("j1", ["b"], inputs=["a"]))
        store.record(record("j2", ["c"], inputs=["b"]))
        chain = store.lineage("c")
        assert [r.job_id for r in chain] == ["j2", "j1"]

    def test_lineage_stops_at_raw_data(self):
        store = ProvenanceStore()
        store.record(record("j1", ["b"], inputs=["raw"]))
        assert [r.job_id for r in store.lineage("b")] == ["j1"]
        assert store.lineage("raw") == []

    def test_duration(self):
        assert record("j", ["x"]).duration == 1.0


def build_vds() -> VirtualDataSystem:
    vds = VirtualDataSystem(
        planner_options=PlannerOptions(
            output_site="store", site_selection="round-robin", replica_selection="first"
        )
    )
    vds.add_storage_site("store")
    vds.define(
        "TR upper( in x, out y ) { }\n"
        'DV d->upper( x=@{in:"raw.txt"}, y=@{out:"result.txt"} );'
    )
    vds.registry.register(
        "upper", lambda job, inputs: {job.outputs[0]: next(iter(inputs.values())).upper()}
    )
    vds.tc.install("upper", "uwisc", "/bin/upper")
    return vds


class TestVirtualDataSystem:
    def test_pools_get_storage_sites(self):
        vds = VirtualDataSystem()
        assert set(vds.sites) >= {"isi", "uwisc", "fnal"}
        assert set(vds.rls.sites()) >= {"isi", "uwisc", "fnal"}

    def test_duplicate_storage_site(self):
        vds = VirtualDataSystem()
        with pytest.raises(ValueError):
            vds.add_storage_site("isi")

    def test_publish_retrieve(self):
        vds = build_vds()
        pfn = vds.publish("raw.txt", b"abc", "store")
        assert pfn.endswith("/data/raw.txt")
        assert vds.retrieve("raw.txt") == b"abc"

    def test_retrieve_missing(self):
        vds = build_vds()
        with pytest.raises(ExecutionError):
            vds.retrieve("ghost")

    def test_materialize_local(self):
        vds = build_vds()
        vds.publish("raw.txt", b"abc", "store")
        plan, report = vds.materialize(["result.txt"])
        assert report.succeeded
        assert vds.retrieve("result.txt") == b"ABC"
        # provenance knows how the result was made
        assert vds.provenance.producer("result.txt").transformation == "upper"

    def test_second_request_reuses(self):
        vds = build_vds()
        vds.publish("raw.txt", b"abc", "store")
        vds.materialize(["result.txt"])
        plan2 = vds.plan(["result.txt"])
        assert plan2.reduction.fully_satisfied

    def test_simulate_mode(self):
        vds = build_vds()
        vds.publish("raw.txt", b"abc", "store")
        plan = vds.plan(["result.txt"])
        report = vds.execute(plan, mode="simulate")
        assert report.succeeded
        assert report.makespan > 0

    def test_unknown_mode(self):
        vds = build_vds()
        vds.publish("raw.txt", b"abc", "store")
        plan = vds.plan(["result.txt"])
        with pytest.raises(ValueError):
            vds.execute(plan, mode="quantum")

    def test_size_estimator_feeds_transfer_sizes(self):
        vds = build_vds()
        vds.publish("raw.txt", b"abcdef", "store")
        plan = vds.plan(["result.txt"])
        stage_ins = plan.concrete.transfer_nodes()
        sizes = {t.lfn: t.size_bytes for t in stage_ins}
        assert sizes.get("raw.txt") == 6
