"""Full-pipeline tracing smoke: the demo portal run emits a coherent trace."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.catalog.coords import SkyPosition
from repro.fits.hdu import ImageHDU
from repro.morphology.pipeline import GalmorphTask, galmorph_batch
from repro.portal.demo import build_demo_environment
from repro.sky.cluster import ClusterModel, GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image
from repro.telemetry.report import node_spans, render_report, summarize


def _cluster(name: str, n: int) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(150.0, 2.2),
        redshift=0.05,
        n_galaxies=n,
        core_radius_deg=0.04,
        tidal_radius_deg=0.4,
        seed=2003,
        context_image_count=4,
    )


def _tasks(count: int) -> list[GalmorphTask]:
    types = [MorphType.ELLIPTICAL, MorphType.SPIRAL]
    tasks = []
    for i in range(count):
        galaxy = GalaxyRecord(
            f"t-{i}", 150.0, 2.0, 0.05, 17.0, types[i % 2], 2.5, 0.25, 30.0, 0.2, 0.1
        )
        hdu = ImageHDU(render_galaxy_image(galaxy, rng=np.random.default_rng(7 + i)))
        tasks.append(
            GalmorphTask(
                image=hdu, redshift=0.05, pix_scale=0.4 / 3600.0, galaxy_id=f"t-{i}"
            )
        )
    return tasks


@pytest.fixture(scope="module")
def traced_run():
    """One traced demo analysis shared by the smoke assertions below."""
    env = build_demo_environment(
        clusters=[_cluster("TEL-A", 6)], seed_virtual_data_reuse=False
    )
    telemetry.enable()
    try:
        session = env.portal.run_analysis("TEL-A")
        spans = list(telemetry.get_tracer().spans())
        metrics = telemetry.get_registry().dump()
    finally:
        telemetry.disable()
    return session, spans, metrics


def test_single_root_and_no_orphans(traced_run):
    _, spans, _ = traced_run
    by_id = {s["span"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert [r["name"] for r in roots] == ["portal.run_analysis"]
    # every parent pointer resolves to a recorded span
    orphans = [s for s in spans if s["parent"] is not None and s["parent"] not in by_id]
    assert orphans == []
    # one trace id across the whole run
    assert len({s["trace"] for s in spans}) == 1


def test_expected_stage_spans_present(traced_run):
    _, spans, _ = traced_run
    names = {s["name"] for s in spans}
    for expected in (
        "portal.run_analysis",
        "service.request",
        "service.vdl_generate",
        "vdl.compose",
        "pegasus.plan",
        "pegasus.reduction",
        "pegasus.concretize",
        "condor.execute",
        "condor.node",
        "galmorph.galaxy",
    ):
        assert expected in names, f"missing span {expected!r}"


def test_one_node_span_per_executed_dag_node(traced_run):
    _, spans, _ = traced_run
    execute = next(s for s in spans if s["name"] == "condor.execute")
    nodes = node_spans(spans)
    # the concrete workflow executed every node exactly once (after dedup)
    assert len(nodes) == execute["attrs"]["nodes"]
    assert len({n["attrs"]["node"] for n in nodes}) == len(nodes)
    # all executed nodes are children of the execute span's trace
    assert all(n["trace"] == execute["trace"] for n in nodes)


def test_galmorph_spans_chain_up_to_portal_root(traced_run):
    _, spans, _ = traced_run
    by_id = {s["span"]: s for s in spans}

    def ancestry(span):
        chain = [span["name"]]
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            chain.append(span["name"])
        return chain

    galaxy = next(s for s in spans if s["name"] == "galmorph.galaxy")
    chain = ancestry(galaxy)
    assert chain[-1] == "portal.run_analysis"
    assert "condor.node" in chain or "galmorph.batch" in chain


def test_metrics_counted_during_run(traced_run):
    session, _, metrics = traced_run
    assert session.merged is not None
    nodes_total = metrics["workflow_nodes_total"]
    succeeded = sum(
        v for labels, v in nodes_total["series"].items()
        if dict(labels).get("state") == "succeeded"
    )
    assert succeeded > 0
    assert metrics["galmorph_rows_total"]["kind"] == "counter"
    assert metrics["service_requests_total"]["kind"] == "counter"


def test_report_renders_from_live_trace(traced_run):
    _, spans, _ = traced_run
    summary = summarize(spans)
    assert summary["nodes"] > 0
    assert summary["critical_path_len"] >= 1
    text = render_report(spans)
    assert "== workflow node timeline ==" in text
    assert "== critical path ==" in text


def test_batch_spans_carry_parent_trace_id(enabled_telemetry):
    """A batch run under an open span stays inside that span's trace."""
    with telemetry.trace_span("driver") as driver:
        results = galmorph_batch(_tasks(3))
    assert len(results) == 3
    spans = telemetry.get_tracer().spans()
    batch = next(s for s in spans if s["name"] == "galmorph.batch")
    assert batch["parent"] == driver.span_id
    galaxies = [s for s in spans if s["name"] == "galmorph.galaxy"]
    assert len(galaxies) == 3
    assert all(s["trace"] == driver.trace_id for s in galaxies)
    assert telemetry.get_registry().counter("galmorph_rows_total").total() == 3
