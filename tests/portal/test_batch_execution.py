"""Clustered compute nodes through the batch executable path.

The batched galMorph body must be *observationally identical* to the seed
per-member loop: same output files byte-for-byte, same per-member
provenance, same missing-output failures.  The per-member loop remains the fallback for
bundles without a registered batch body and for mixed-transformation
bundles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.fits.hdu import ImageHDU
from repro.fits.io import write_fits_bytes
from repro.portal.executables import register_demo_executables, text_to_result
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.sky.cluster import GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import ClusteredComputeNode, ComputeNode, ConcreteWorkflow

PARAMS = {"redshift": "0.05", "pixScale": str(0.4 / 3600.0)}


def _payloads(count: int) -> list[bytes]:
    types = [MorphType.ELLIPTICAL, MorphType.SPIRAL, MorphType.IRREGULAR]
    out = []
    for i in range(count):
        galaxy = GalaxyRecord(
            f"g{i}", 150.0, 2.0, 0.05, 17.0, types[i % 3], 2.5, 0.25, 30.0, 0.2, 0.1
        )
        image = render_galaxy_image(galaxy, rng=np.random.default_rng(10 + i))
        out.append(write_fits_bytes(ImageHDU(image)))
    return out


def _environment(count: int = 4):
    sites = {"B": StorageSite("B")}
    rls = ReplicaLocationService()
    rls.add_site("B")
    registry = ExecutableRegistry()
    register_demo_executables(registry)
    for i, payload in enumerate(_payloads(count)):
        sites["B"].put(sites["B"].pfn_for(f"img{i}"), payload)
    return sites, rls, registry


def _members(count: int) -> list[ComputeNode]:
    return [
        ComputeNode(
            f"m{i}",
            AbstractJob(f"d{i}", "galMorph", (f"img{i}",), (f"res{i}",), dict(PARAMS)),
            "B",
            "/bin/galMorph",
        )
        for i in range(count)
    ]


def _cluster_workflow(count: int) -> ConcreteWorkflow:
    cw = ConcreteWorkflow()
    cw.add(ClusteredComputeNode("cluster0", tuple(_members(count)), "B"))
    return cw


class TestBatchPath:
    def test_batch_outputs_match_per_member_loop(self):
        """Same bundle through the batch body and through per-member nodes:
        same records, every parameter within the 1e-9 stacked-kernel
        parity contract (the stacked batch kernels reorder floating-point
        summation, so values can differ from the scalar path at the
        ~1e-15 level; identity, validity and structure must still match
        exactly)."""
        count = 4
        sites_a, rls_a, registry_a = _environment(count)
        report = LocalExecutor(sites_a, registry_a, rls_a).execute(_cluster_workflow(count))
        assert report.succeeded

        sites_b, rls_b, registry_b = _environment(count)
        cw = ConcreteWorkflow()
        for member in _members(count):
            cw.add(member)
        assert LocalExecutor(sites_b, registry_b, rls_b).execute(cw).succeeded

        for i in range(count):
            lfn = f"res{i}"
            got = text_to_result(sites_a["B"].get(sites_a["B"].pfn_for(lfn)))
            want = text_to_result(sites_b["B"].get(sites_b["B"].pfn_for(lfn)))
            assert got.galaxy_id == want.galaxy_id
            assert got.valid == want.valid
            assert got.error == want.error
            for field in (
                "surface_brightness",
                "concentration",
                "asymmetry",
                "petrosian_radius_arcsec",
                "petrosian_radius_kpc",
            ):
                a, b = getattr(got, field), getattr(want, field)
                if np.isnan(a) and np.isnan(b):
                    continue
                assert abs(a - b) <= 1e-9, (lfn, field, a, b)

    def test_provenance_recorded_per_member(self):
        count = 3
        sites, rls, registry = _environment(count)
        executor = LocalExecutor(sites, registry, rls)
        assert executor.execute(_cluster_workflow(count)).succeeded
        for i in range(count):
            record = executor.provenance.producer(f"res{i}")
            assert record is not None and record.success
            assert record.transformation == "galMorph"

    def test_wrong_result_count_fails_node(self):
        sites, rls, _ = _environment(0)
        registry = ExecutableRegistry()
        registry.register("t", lambda job, inputs: {job.outputs[0]: b"x"})
        registry.register_batch("t", lambda jobs, inputs: [])  # drops results
        members = tuple(
            ComputeNode(f"m{i}", AbstractJob(f"d{i}", "t", (), (f"o{i}",)), "B", "/bin/t")
            for i in range(2)
        )
        cw = ConcreteWorkflow()
        cw.add(ClusteredComputeNode("c0", members, "B"))
        report = LocalExecutor(sites, registry, rls, max_retries=0).execute(cw)
        assert not report.succeeded

    def test_missing_declared_output_fails_node(self):
        sites, rls, _ = _environment(0)
        registry = ExecutableRegistry()
        registry.register("t", lambda job, inputs: {job.outputs[0]: b"x"})
        registry.register_batch("t", lambda jobs, inputs: [{} for _ in jobs])
        members = tuple(
            ComputeNode(f"m{i}", AbstractJob(f"d{i}", "t", (), (f"o{i}",)), "B", "/bin/t")
            for i in range(2)
        )
        cw = ConcreteWorkflow()
        cw.add(ClusteredComputeNode("c0", members, "B"))
        report = LocalExecutor(sites, registry, rls, max_retries=0).execute(cw)
        assert not report.succeeded


class TestFallbackPath:
    def test_no_batch_body_uses_per_member_loop(self):
        """A transformation without a batch body still executes clustered
        bundles through the seed per-member loop."""
        sites = {"B": StorageSite("B")}
        rls = ReplicaLocationService()
        rls.add_site("B")
        registry = ExecutableRegistry()
        calls: list[str] = []

        def body(job, inputs):
            calls.append(job.job_id)
            return {job.outputs[0]: job.job_id.encode()}

        registry.register("t", body)
        members = tuple(
            ComputeNode(f"m{i}", AbstractJob(f"d{i}", "t", (), (f"o{i}",)), "B", "/bin/t")
            for i in range(3)
        )
        cw = ConcreteWorkflow()
        cw.add(ClusteredComputeNode("c0", members, "B"))
        assert LocalExecutor(sites, registry, rls).execute(cw).succeeded
        assert calls == ["d0", "d1", "d2"]  # seqexec order preserved

    def test_mixed_transformation_bundle_falls_back(self):
        """A bundle mixing transformations never goes through a batch body,
        even if one member's transformation has one registered."""
        sites = {"B": StorageSite("B")}
        rls = ReplicaLocationService()
        rls.add_site("B")
        registry = ExecutableRegistry()
        registry.register("t1", lambda job, inputs: {job.outputs[0]: b"t1"})
        registry.register("t2", lambda job, inputs: {job.outputs[0]: b"t2"})

        def never(jobs, inputs):  # pragma: no cover - must not run
            raise AssertionError("batch body called for a mixed bundle")

        registry.register_batch("t1", never)
        members = (
            ComputeNode("m0", AbstractJob("d0", "t1", (), ("o0",)), "B", "/bin/t1"),
            ComputeNode("m1", AbstractJob("d1", "t2", (), ("o1",)), "B", "/bin/t2"),
        )
        cw = ConcreteWorkflow()
        cw.add(ClusteredComputeNode("c0", members, "B"))
        assert LocalExecutor(sites, registry, rls).execute(cw).succeeded
        assert sites["B"].get(sites["B"].pfn_for("o0")) == b"t1"
        assert sites["B"].get(sites["B"].pfn_for("o1")) == b"t2"


class TestRegistryContracts:
    def test_batch_requires_per_job_body_first(self):
        registry = ExecutableRegistry()
        with pytest.raises(ValueError):
            registry.register_batch("t", lambda jobs, inputs: [])

    def test_duplicate_batch_rejected(self):
        registry = ExecutableRegistry()
        registry.register("t", lambda j, i: {})
        registry.register_batch("t", lambda jobs, inputs: [])
        with pytest.raises(ValueError):
            registry.register_batch("t", lambda jobs, inputs: [])

    def test_get_batch_none_when_unregistered(self):
        registry = ExecutableRegistry()
        registry.register("t", lambda j, i: {})
        assert registry.get_batch("t") is None

    def test_unclustered_nodes_unaffected(self):
        """Plain compute nodes never touch the batch body."""
        sites, rls, registry = _environment(1)
        cw = ConcreteWorkflow()
        cw.add(_members(1)[0])
        report = LocalExecutor(sites, registry, rls).execute(cw)
        assert report.succeeded
        assert sites["B"].exists(sites["B"].pfn_for("res0"))
