"""The traced run's in-process half: a staged walk of one job, stage by stage
through public functions with the benchmark's own span recorder, followed by
isolated replays of single layers on the data the walk staged.

Tracing *inside* the program is a later change; here the spans sit around the
calls into each layer.  The walk must stay the same program the HTTP runs
measure, so every walked job's bytes are compared with ``portal.run_analysis``.
"""

from __future__ import annotations

import math
import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from benchmarks.e2e import stats
from benchmarks.e2e.inputs import Workload
from repro import telemetry
from repro.condor.local import ExecutableRegistry
from repro.fits.io import read_fits_bytes, write_fits_bytes
from repro.portal.demo import CACHE_SITE, DemoEnvironment, build_demo_environment
from repro.portal.executables import (
    galmorph_batch_executable,
    galmorph_executable,
    text_to_result,
)
from repro.portal.service import GALMORPH_TR, votable_to_url_list, votable_to_vdl
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.scheduler.cache import RlsResultCache
from repro.scheduler.journal import JobJournal
from repro.scheduler.policy import AdmissionPolicy
from repro.scheduler.service import WorkloadManager
from repro.services.cutout import CutoutSIAService
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.shard.ring import ConsistentHashRing
from repro.shard.tiling import tile_for_cluster
from repro.vdl.composer import compose_workflow
from repro.votable.parser import parse_votable
from repro.votable.writer import write_votable

#: The walk covers at most this many of the workload's first inputs.
MAX_WALKED = 8


@dataclass
class Staged:
    """What one walked job left behind for the isolated replays."""

    cluster: str
    result: bytes
    galaxies: int = 0
    dag_nodes: int = 0
    abstract_jobs: int = 0
    replan_pruned: int = 0
    compose_s: float = 0.0
    replan_s: float = 0.0
    plan: Any = None
    merged: Any = None
    input_votable: Any = None


def staged_walk(env: DemoEnvironment, cluster: str, rec: stats.SpanRecorder) -> Staged:
    """``PortalJobRunner.run`` unrolled: the portal stages, then Figure 6's
    steps through the public functions the compute service itself calls."""
    portal, vds = env.portal, env.vds
    out_name = f"{cluster}-morphology.vot"
    staged = Staged(cluster, b"")
    with rec.span("job", trace=cluster):
        with rec.span("portal.select_cluster"):
            session = portal.select_cluster(cluster)
        with rec.span("portal.build_catalog"):
            portal.build_catalog(session)
        with rec.span("portal.resolve_cutouts"):
            vot = portal.resolve_cutouts(session)
        staged.input_votable, staged.galaxies = vot, len(vot)
        with rec.span("rls.exists"):
            materialised = vds.rls.exists(out_name)
        if not materialised:
            with rec.span("services.collect_images"):
                for galaxy_id, url in votable_to_url_list(vot):
                    lfn = f"{galaxy_id}.fit"
                    if vds.rls.exists(lfn):
                        continue
                    with rec.span("services.cutout_fetch"):
                        content = env.cutout_service.fetch(url)
                    with rec.span("vds.publish"):
                        vds.publish(lfn, content, CACHE_SITE)
            with rec.span("vdl.define"):
                _define(vds, votable_to_vdl(vot, out_name, cluster))
            started = time.perf_counter()
            compose_workflow(vds.vdc, [out_name])
            staged.compose_s = time.perf_counter() - started
            with rec.span("pegasus.plan"):
                plan = vds.plan([out_name])
            with rec.span("condor.execute"):
                report = vds.execute(plan, mode="local")
            if not report.succeeded:
                raise RuntimeError(f"walked workflow for {cluster} failed")
            staged.plan = plan
            staged.dag_nodes = len(plan.concrete)
            staged.abstract_jobs = len(plan.abstract)
        with rec.span("vds.retrieve"):
            payload = vds.retrieve(out_name)
        with rec.span("votable.parse"):
            session.result_table = parse_votable(payload.decode("utf-8"))
        with rec.span("portal.merge_results"):
            staged.merged = portal.merge_results(session)
        with rec.span("votable.write"):
            staged.result = write_votable(staged.merged, namespaced=True).encode("utf-8")
    if staged.plan is not None:
        # Same request once its outputs are registered: everything prunes.
        started = time.perf_counter()
        replan = vds.plan([out_name])
        staged.replan_s = time.perf_counter() - started
        staged.replan_pruned = len(replan.reduction.pruned_jobs)
    return staged


def _define(vds: Any, vdl_text: str) -> None:
    """Transformations once per catalog, then the derivations not yet known."""
    try:
        vds.vdc.transformation("galMorph")
    except KeyError:
        vds.define(GALMORPH_TR)
    fresh = []
    for line in vdl_text.splitlines():
        name = line.split("->", 1)[0].removeprefix("DV ").strip()
        try:
            vds.vdc.derivation(name)
        except KeyError:
            fresh.append(line)
    if fresh:
        vds.define("\n".join(fresh))


@dataclass
class WalkResult:
    recorder: stats.SpanRecorder
    env: DemoEnvironment  # the recorder-on environment, left warm
    staged: list[Staged]  # the recorder-on cold walks
    rewalked: bool = False  # the same inputs walked again (RLS short-circuit)
    byte_mismatches: list[str] = field(default_factory=list)
    trace_overhead: list[float] = field(default_factory=list)
    telemetry_overhead: list[float] = field(default_factory=list)


def traced_walks(workload: Workload, budget_s: float) -> WalkResult:
    """Walk the workload's first inputs four ways on four fresh environments:
    recorder on, recorder off, recorder off with ``telemetry.enable()``, and
    the program's own ``portal.run_analysis`` as the byte reference.

    Inputs are walked until ``budget_s`` is used (at least one, at most
    ``MAX_WALKED``).  On a primed workload the recorder-on environment then
    walks the same inputs again, in that workload's temperature.
    """
    clusters = workload.clusters
    first = [c.name for c in clusters[:MAX_WALKED]]
    env_on, env_off, env_tel, env_ref = (
        build_demo_environment(clusters=clusters) for _ in range(4)
    )
    rec, off = stats.SpanRecorder(), stats.SpanRecorder(enabled=False)
    variants = [
        ("traced", env_on, rec, False),
        ("untraced", env_off, off, False),
        ("telemetry", env_tel, off, True),
    ]
    result = WalkResult(rec, env_on, [])
    started = time.perf_counter()
    for turn, name in enumerate(first):
        walked: dict[str, Staged] = {}
        took: dict[str, float] = {}
        # Whoever walks an input first pays the process's first-use costs, so
        # the order rotates from input to input.
        for label, env, recorder, with_telemetry in variants[turn % 3 :] + variants[: turn % 3]:
            if with_telemetry:
                telemetry.enable()
            t0 = time.perf_counter()
            try:
                walked[label] = staged_walk(env, name, recorder)
            finally:
                if with_telemetry:
                    telemetry.disable()
            took[label] = time.perf_counter() - t0
        session = env_ref.portal.run_analysis(name)
        reference = write_votable(session.merged, namespaced=True).encode("utf-8")
        result.staged.append(walked["traced"])
        result.trace_overhead.append(took["traced"] / took["untraced"] - 1.0)
        result.telemetry_overhead.append(took["telemetry"] / took["untraced"] - 1.0)
        for label, staged in walked.items():
            if staged.result != reference:
                result.byte_mismatches.append(f"{name}: {label} walk bytes differ from run_analysis")
        if time.perf_counter() - started > budget_s:
            break
    if workload.shape.temperature != "cold":
        for staged in result.staged:
            warm = staged_walk(env_on, staged.cluster, rec)
            if warm.result != staged.result:
                result.byte_mismatches.append(f"{staged.cluster}: warm walk bytes differ from cold")
        result.rewalked = True
    return result


# -- isolated replays --------------------------------------------------------------------
def _per_call(fn: Callable[[], Any], calls: int) -> float:
    started = time.perf_counter()
    for _ in range(calls):
        fn()
    return (time.perf_counter() - started) / calls


def walk_metrics(walk: WalkResult) -> dict[str, float]:
    """Per-layer numbers from the walk's spans."""
    rec, staged = walk.recorder, walk.staged
    jobs = len(staged)
    galaxies = sum(s.galaxies for s in staged)
    nodes = sum(s.dag_nodes for s in staged)
    abstract = sum(s.abstract_jobs for s in staged)

    def total(name: str) -> float:
        return sum(rec.durations(name))

    def portal_stage(name: str) -> float:
        # in the workload's own temperature: the second (short-circuit) pass
        # when the workload is primed
        durations = rec.durations(name)
        return sum(durations[jobs:] if walk.rewalked else durations[:jobs]) / jobs

    fetches = len(rec.durations("services.cutout_fetch"))
    return {
        "portal.select_cluster_ms": 1e3 * portal_stage("portal.select_cluster"),
        "portal.build_catalog_ms": 1e3 * portal_stage("portal.build_catalog"),
        "portal.resolve_cutouts_us_per_galaxy": 1e6 * portal_stage("portal.resolve_cutouts") * jobs / galaxies,
        "portal.merge_results_ms": 1e3 * portal_stage("portal.merge_results"),
        "services.cutout_fetch_us": 1e6 * total("services.cutout_fetch") / max(1, fetches),
        "vdl.define_us_per_dv": 1e6 * total("vdl.define") / abstract,
        "vdl.compose_us_per_job": 1e6 * sum(s.compose_s for s in staged) / jobs,
        "pegasus.plan_us_per_node": 1e6 * total("pegasus.plan") / nodes,
        "pegasus.replan_us_per_node": 1e6 * sum(s.replan_s for s in staged) / nodes,
        "pegasus.replan_pruned_share": sum(s.replan_pruned for s in staged) / abstract,
        "condor.execute_ms_per_job": 1e3 * total("condor.execute") / jobs,
        "condor.execute_us_per_node": 1e6 * total("condor.execute") / nodes,
        "trace.overhead_share": statistics.median(walk.trace_overhead),
        "telemetry.enabled_overhead_share": statistics.median(walk.telemetry_overhead),
        "trace.walked_jobs": float(jobs),
    }


def replay_metrics(workload: Workload, walk: WalkResult) -> dict[str, float]:
    """Single layers timed alone, on the last walked job's staged data."""
    env, staged = walk.env, walk.staged[-1]
    vds = env.vds
    out: dict[str, float] = {}
    morph_jobs = [j for j in staged.plan.abstract.jobs() if j.transformation == "galMorph"]
    inputs_list = [{j.inputs[0]: vds.retrieve(j.inputs[0])} for j in morph_jobs]
    n = len(morph_jobs)

    # morphology: the DAG's own bodies replayed single-threaded
    previous = os.environ.get("REPRO_GALMORPH_PROCESSES")
    os.environ["REPRO_GALMORPH_PROCESSES"] = "1"  # stacked kernels in this process
    try:
        # First calls build per-shape geometry and per-batch-size buffers
        # (the stacked body is ~3x slower on its first full pass): time the
        # steady state.
        galmorph_executable(morph_jobs[0], inputs_list[0])
        galmorph_batch_executable(morph_jobs, inputs_list)
        started = time.perf_counter()
        scalar = [galmorph_executable(j, i) for j, i in zip(morph_jobs, inputs_list)]
        scalar_s = time.perf_counter() - started
        started = time.perf_counter()
        stacked = galmorph_batch_executable(morph_jobs, inputs_list)
        stacked_s = time.perf_counter() - started
    finally:
        if previous is None:
            del os.environ["REPRO_GALMORPH_PROCESSES"]
        else:
            os.environ["REPRO_GALMORPH_PROCESSES"] = previous
    out["morphology.scalar_us_per_galaxy"] = 1e6 * scalar_s / n
    out["morphology.stacked_us_per_galaxy"] = 1e6 * stacked_s / n
    out["morphology.parity_max_abs"] = _parity(scalar, stacked)

    # condor: same DAG shape, no-op bodies, separate virtual data system
    null_env = build_demo_environment(clusters=workload.clusters)
    registry = ExecutableRegistry()
    for transformation in ("galMorph", "concatVOTable"):
        registry.register(transformation, lambda job, inputs: {o: b"" for o in job.outputs})
    null_env.vds.registry = registry
    for inputs in inputs_list:
        for lfn, content in inputs.items():
            null_env.vds.publish(lfn, content, CACHE_SITE)
    out_name = f"{staged.cluster}-morphology.vot"
    _define(null_env.vds, votable_to_vdl(staged.input_votable, out_name, staged.cluster))
    null_plan = null_env.vds.plan([out_name])
    started = time.perf_counter()
    report = null_env.vds.execute(null_plan, mode="local")
    null_s = time.perf_counter() - started
    if not report.succeeded:
        raise RuntimeError("null DAG failed")
    out["condor.null_dag_us_per_node"] = 1e6 * null_s / len(null_plan.concrete)
    execute_s = sum(walk.recorder.durations("condor.execute", staged.cluster))
    # ÷ nproc, not the one core the walk is confined to: what the executor
    # makes of the machine (the confined walk cannot exceed 1 / nproc).
    out["condor.useful_cpu_share"] = scalar_s / (execute_s * (os.cpu_count() or 1))

    # services, used directly
    cluster = next(c for c in workload.clusters if c.name == staged.cluster)
    cone = ConeSearchRequest(ra=cluster.center.ra, dec=cluster.center.dec, sr=1.1 * cluster.tidal_radius_deg)
    out["services.cone_search_ms"] = 1e3 * _per_call(lambda: env.photometry_service.search(cone), 5)
    sia = SIARequest(ra=cluster.center.ra, dec=cluster.center.dec, size=2.2 * cluster.tidal_radius_deg)
    out["services.sia_query_ms"] = 1e3 * _per_call(lambda: env.optical_archive.query(sia), 5)
    rows = list(staged.input_votable)[:50]
    started = time.perf_counter()
    for row in rows:
        env.cutout_service.query(SIARequest(ra=row["ra"], dec=row["dec"], size=0.005))
    out["services.cutout_query_us"] = 1e6 * (time.perf_counter() - started) / len(rows)
    urls = [url for _, url in votable_to_url_list(staged.input_votable)]
    fresh = CutoutSIAService(workload.clusters)
    started = time.perf_counter()
    fresh.fetch_batch(urls)
    out["services.cutout_fetch_batch_us"] = 1e6 * (time.perf_counter() - started) / len(urls)

    # fits / votable codecs on the staged bytes
    images = [content for inputs in inputs_list[:100] for content in inputs.values()]
    started = time.perf_counter()
    hdus = [read_fits_bytes(content) for content in images]
    out["fits.read_us"] = 1e6 * (time.perf_counter() - started) / len(images)
    started = time.perf_counter()
    for hdu in hdus:
        write_fits_bytes(hdu)
    out["fits.write_us"] = 1e6 * (time.perf_counter() - started) / len(images)
    text = staged.result.decode("utf-8")
    table_rows = len(staged.merged)
    out["votable.write_us_per_row"] = 1e6 * _per_call(lambda: write_votable(staged.merged), 3) / table_rows
    out["votable.parse_us_per_row"] = 1e6 * _per_call(lambda: parse_votable(text), 3) / table_rows

    out.update(_catalog_metrics(staged.result))
    return out


def _parity(scalar: list[dict[str, bytes]], stacked: list[dict[str, bytes]]) -> float:
    worst = 0.0
    fields = ("surface_brightness", "concentration", "asymmetry", "petrosian_radius_arcsec", "petrosian_radius_kpc")
    for a, b in zip(scalar, stacked):
        (ra,), (rb,) = (text_to_result(v) for v in a.values()), (text_to_result(v) for v in b.values())
        if ra.valid != rb.valid:
            return math.inf
        for name in fields:
            x, y = getattr(ra, name), getattr(rb, name)
            if math.isnan(x) and math.isnan(y):
                continue
            worst = max(worst, abs(x - y))
    return worst


def _catalog_metrics(payload: bytes) -> dict[str, float]:
    """RLS, result cache, journal, manager submit and shard routing alone."""
    out: dict[str, float] = {}
    calls = 2000
    rls = ReplicaLocationService()
    rls.add_site("bench")
    lfns = [f"bench-{i}.fit" for i in range(calls)]
    started = time.perf_counter()
    for lfn in lfns:
        rls.register(lfn, f"gsiftp://bench.grid/data/{lfn}", "bench")
    out["rls.register_us"] = 1e6 * (time.perf_counter() - started) / calls
    started = time.perf_counter()
    for lfn in lfns:
        rls.exists(lfn)
    out["rls.exists_us"] = 1e6 * (time.perf_counter() - started) / calls
    started = time.perf_counter()
    for lfn in lfns:
        rls.lookup(lfn)
    out["rls.lookup_us"] = 1e6 * (time.perf_counter() - started) / calls

    cache = RlsResultCache(rls, StorageSite("bench"), "bench")
    signatures = [f"sig-{i:016x}" for i in range(500)]
    started = time.perf_counter()
    for signature in signatures:
        cache.store(signature, payload)
    out["scheduler.cache_store_us"] = 1e6 * (time.perf_counter() - started) / len(signatures)
    started = time.perf_counter()
    for signature in signatures:
        cache.lookup(signature)
    out["scheduler.cache_lookup_us"] = 1e6 * (time.perf_counter() - started) / len(signatures)

    from benchmarks.e2e.harness import OUT_DIR

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        journal = JobJournal(Path(tmp) / "append.jsonl")
        out["scheduler.journal_append_us"] = 1e6 * _per_call(
            lambda: journal.append("start", job_id="job-000000-bench"), 500
        )
        manager = WorkloadManager(
            None,
            journal=JobJournal(Path(tmp) / "submit.jsonl"),
            admission=AdmissionPolicy(max_queue_depth=10**9, max_active_per_user=10**9),
        )
        started = time.perf_counter()
        for i in range(200):
            manager.submit("bench", f"cluster-{i}")
        out["scheduler.submit_us"] = 1e6 * (time.perf_counter() - started) / 200

    ring = ConsistentHashRing([f"shard-{i}" for i in range(4)])
    names = [f"route-{i}" for i in range(1000)]  # distinct: the position is memoised per name
    started = time.perf_counter()
    for name in names:
        ring.node_for(tile_for_cluster(name).tile_id)
    out["shard.route_us"] = 1e6 * (time.perf_counter() - started) / len(names)
    return out
