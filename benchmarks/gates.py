"""The repository's invariant gates: one driver, three trajectory files.

How fast the system is belongs to ``BENCHMARK.json`` + ``benchmarks/e2e``
(the real serving path, driven over HTTP).  What lives here is what must
*hold* whatever the host is doing:

* **kernels** (``BENCH_morphology.json``) — the stacked batch pipeline
  agrees with the preserved seed kernels to ``1e-9`` and keeps its
  speed-up floors over them (a speed-up is the median of per-round
  ratios, seed and fast timed back to back, so host noise lands on
  both); the disabled telemetry helpers cost under 2 % of one galMorph
  job.
* **chaos** (``BENCH_chaos.json``) — the ``recoverable`` fault campaign
  ends byte-identical to its fault-free twin; the disabled fault hooks
  plus the always-on resilience boundary (the retry wrapper and the
  site-health ledger every environment runs) cost under 1 % of a
  fault-free analysis.
* **scale** (``BENCH_scale.json``) — a 200-cluster campaign on the
  simulated Grid under the ``slow-site`` plan lands on exactly the pinned
  makespan, wave by wave, and the same plan on the real executor changes
  no output byte.  The simulator is seeded and runs on a virtual clock,
  so the makespans are the same numbers on every host: this is the
  simulator's determinism gate.

The two overhead budgets are each *unit cost × an over-count of
crossings* against a measured wall time — a product of positive numbers —
not an A/B throughput difference, which on a shared host comes out
negative as often as not.

Usage::

    PYTHONPATH=src python benchmarks/gates.py --check          # full repeats
    PYTHONPATH=src python benchmarks/gates.py --quick --check  # what CI runs

Every run appends one timestamped entry, with the environment it ran in,
to each trajectory file (``{"history": [entry, ...]}``) under ``--out``
(default: the repo root).  ``--quick`` only cuts the repeats of the timed
measurements a gate does not judge (a floored kernel row keeps its full
:data:`ROUNDS`); the deterministic checks always run whole.  ``--check``
exits 1 when any gate is missed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections.abc import Callable
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
from scipy import ndimage

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.condor.pool import GridTopology  # noqa: E402
from repro.condor.simulator import GridSimulator, SimulationOptions  # noqa: E402
from repro.faults.chaos import run_chaos_campaign  # noqa: E402
from repro.faults.profiles import get_profile  # noqa: E402
from repro.fits.hdu import ImageHDU  # noqa: E402
from repro.fits.io import read_fits_bytes, write_fits_bytes  # noqa: E402
from repro.morphology.geometry import CutoutGeometry  # noqa: E402
from repro.morphology.measures import asymmetry_index, concentration_index  # noqa: E402
from repro.morphology.petrosian import petrosian_radius  # noqa: E402
from repro.morphology.pipeline import GalmorphTask, galmorph, galmorph_batch  # noqa: E402
from repro.morphology.reference import (  # noqa: E402
    asymmetry_index_reference,
    concentration_index_reference,
    galmorph_reference,
    petrosian_radius_reference,
)
from repro.pegasus.site_selector import RoundRobinSiteSelector, SiteSelector  # noqa: E402
from repro.portal.demo import build_demo_environment  # noqa: E402
from repro.resilience.breaker import SiteHealthTracker  # noqa: E402
from repro.resilience.retry import DEFAULT_RETRY_POLICY, retry_call  # noqa: E402
from repro.sky.cluster import GalaxyRecord, MorphType  # noqa: E402
from repro.sky.galaxy import render_galaxy_image  # noqa: E402
from repro.sky.profiles import pixel_integrated_sersic  # noqa: E402
from repro.sky.registry_data import demonstration_cluster  # noqa: E402
from repro.workflow.abstract import AbstractJob  # noqa: E402
from repro.workflow.concrete import ComputeNode, ConcreteWorkflow  # noqa: E402


# -- shared plumbing ------------------------------------------------------------------
def timed_rounds(repeats: int, *fns: Callable[[], object]) -> list[list[float]]:
    """Wall seconds of each ``fn()`` over ``repeats`` interleaved rounds.

    Every function runs once untimed first, so geometry caches, the
    allocator and lazy imports settle — the campaign steady state is what
    is compared.  The functions are then timed round-robin, so a burst of
    host noise lands on every side of a comparison in the same round
    instead of on one of them.  Callers reduce the samples by what they
    gate: a speed-up is the median of the per-round ratios, a unit cost
    held under a budget is the minimum (noise only ever adds time).
    """
    for fn in fns:
        fn()
    samples: list[list[float]] = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, samples):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return samples


def environment() -> dict[str, object]:
    """Where the entry was measured (timings mean nothing without it)."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def append_entry(path: Path, entry: dict) -> int:
    """Append ``entry`` to the trajectory at ``path``; returns its length."""
    history = json.loads(path.read_text()) if path.exists() else {"history": []}
    history["history"].append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return len(history["history"])


# -- kernels: parity, speed-up floors, disabled-telemetry cost ------------------------
#: Acceptance floors of the fast-path PRs (seed time / fast time).
FLOORS = {"galmorph_64": 2.0, "asymmetry_128": 3.0, "galmorph_batch_8": 4.0}

#: Interleaved rounds of a full kernel measurement.  A floored row always
#: runs them all, ``--quick`` or not: a floor judges the median of its
#: per-round ratios, and a median of three can miss on an unchanged kernel.
ROUNDS = 15

#: Max tolerated |stacked - reference| on any measured parameter.
PARITY_TOL = 1e-9
PARITY_FIELDS = (
    "surface_brightness",
    "concentration",
    "asymmetry",
    "petrosian_radius_arcsec",
)

#: Max disabled-telemetry cost per galMorph job, relative to the measured
#: fast-path job time.
TELEMETRY_BUDGET = 0.02

#: Guarded telemetry calls on the per-galaxy hot path (one galmorph.galaxy
#: span + kernel counters + the geometry-cache hit/miss counters a typical
#: measurement drives).  Deliberately generous.
GUARDED_CALLS_PER_GALMORPH = 64


def _sersic(size: int, n: float) -> np.ndarray:
    img = pixel_integrated_sersic(
        (size, size), ((size - 1) / 2, (size - 1) / 2), size / 10, n, 1e4
    )
    return ndimage.gaussian_filter(img, 1.2)


def _galmorph_payload() -> bytes:
    galaxy = GalaxyRecord(
        "bench-g2", 150.0, 2.0, 0.05, 17.0, MorphType.ELLIPTICAL, 4.0, 0.2, 0.0, 0.01, 0.05
    )
    return write_fits_bytes(ImageHDU(render_galaxy_image(galaxy, rng=np.random.default_rng(1))))


def _batch_tasks(count: int) -> list[GalmorphTask]:
    types = [MorphType.ELLIPTICAL, MorphType.SPIRAL, MorphType.IRREGULAR, MorphType.LENTICULAR]
    tasks = []
    for i in range(count):
        galaxy = GalaxyRecord(
            f"batch-{i}", 150.0, 2.0, 0.05, 17.0, types[i % 4], 2.5, 0.25, 30.0, 0.2, 0.1
        )
        hdu = ImageHDU(render_galaxy_image(galaxy, rng=np.random.default_rng(100 + i)))
        tasks.append(
            GalmorphTask(image=hdu, redshift=0.05, pix_scale=0.4 / 3600.0, galaxy_id=f"batch-{i}")
        )
    return tasks


def _reference_batch(tasks: list[GalmorphTask]) -> list:
    return [
        galmorph_reference(
            t.image, redshift=t.redshift, pix_scale=t.pix_scale, galaxy_id=t.galaxy_id
        )
        for t in tasks
    ]


def batch_parity_drift() -> float:
    """Worst |stacked - reference| over a mixed-morphology probe batch (NaN
    on both sides is agreement, a valid-flag mismatch infinite drift)."""
    tasks = _batch_tasks(8)
    worst = 0.0
    for got, ref in zip(galmorph_batch(tasks), _reference_batch(tasks)):
        if got.valid != ref.valid:
            return float("inf")
        for field in PARITY_FIELDS:
            a, b = getattr(got, field), getattr(ref, field)
            if not (np.isnan(a) and np.isnan(b)):
                worst = max(worst, abs(a - b))
    return worst


def kernel_pairs(repeats: int) -> dict[str, dict[str, float]]:
    """Seed-vs-fast medians for the hot kernels of the §5 campaign."""
    results: dict[str, dict[str, float]] = {}

    def pair(name: str, seed_fn, fast_fn, reps: int = repeats) -> None:
        reps = ROUNDS if name in FLOORS else reps
        seed, fast = timed_rounds(reps, seed_fn, fast_fn)
        row = results[name] = {
            "seed_ms": round(statistics.median(seed) * 1e3, 4),
            "fast_ms": round(statistics.median(fast) * 1e3, 4),
            "speedup": round(statistics.median(s / f for s, f in zip(seed, fast)), 2),
            "rounds": reps,
        }
        print(f"  {name:<22} seed {row['seed_ms']:8.3f} ms   fast {row['fast_ms']:8.3f} ms   "
              f"{row['speedup']:5.2f}x  ({reps} rounds)")

    # asymmetry: the dominant kernel (9-point centre search)
    for size in (32, 64, 128):
        img = _sersic(size, 1.0)
        center = ((size - 1) / 2, (size - 1) / 2)
        radius = size / 2 - 2
        geom = CutoutGeometry((size, size))
        pair(
            f"asymmetry_{size}",
            lambda img=img, c=center, r=radius: asymmetry_index_reference(img, c, r),
            lambda img=img, c=center, r=radius, g=geom: asymmetry_index(img, c, r, geometry=g),
        )

    # concentration + petrosian on the campaign's common 64x64 shape
    img64 = _sersic(64, 4.0)
    c64 = (31.5, 31.5)
    geom64 = CutoutGeometry((64, 64))
    pair(
        "concentration_64",
        lambda: concentration_index_reference(img64, c64, 30.0),
        lambda: concentration_index(img64, c64, 30.0, geometry=geom64),
    )
    pair(
        "petrosian_64",
        lambda: petrosian_radius_reference(img64, c64),
        lambda: petrosian_radius(img64, c64, geometry=geom64),
    )

    # the full §5 unit of work: FITS parse -> parameters
    payload = _galmorph_payload()
    job = {"redshift": 0.05, "pix_scale": 0.4 / 3600.0, "galaxy_id": "g"}
    pair(
        "galmorph_64",
        lambda: galmorph_reference(read_fits_bytes(payload), **job),
        lambda: galmorph(read_fits_bytes(payload), **job),
    )

    # clustered-node bundle: per-member seed loop vs stacked batch.  Larger
    # batches amortise the per-batch fixed costs, so the matrix tracks the
    # scaling curve; the seed side costs ~2.5 ms per galaxy, so the big
    # batches run fewer (but never fewer than 3) repeats.
    for count, divisor in ((8, 1), (64, 5), (256, 15)):
        tasks = _batch_tasks(count)
        pair(
            f"galmorph_batch_{count}",
            lambda tasks=tasks: _reference_batch(tasks),
            lambda tasks=tasks: galmorph_batch(tasks),
            reps=max(3, repeats // divisor),
        )
    return results


def disabled_telemetry_ns_per_call() -> float:
    """Per-call cost of the guarded helpers the hot paths call
    (``trace_span`` + ``count``) with telemetry off: the fastest of
    :data:`ROUNDS` short loops, so a slow stretch of a shared host must
    cover every one of them to move it."""
    telemetry.disable()
    n = 600_000 // ROUNDS  # 600k iterations in all, whatever ROUNDS is

    def loop() -> None:
        span, count = telemetry.trace_span, telemetry.count
        for _ in range(n):
            with span("bench.overhead", k=1):
                pass
            count("bench_overhead_total", kind="x")

    (loop_s,) = timed_rounds(ROUNDS, loop)
    return min(loop_s) / (2 * n) * 1e9  # one span + one counter per iteration


def measure_morphology(quick: bool) -> dict:
    repeats = 3 if quick else ROUNDS
    print(f"kernels ({repeats} rounds, {ROUNDS} for a floored row; seed and fast "
          "interleaved; medians):")
    results = kernel_pairs(repeats)
    drift = batch_parity_drift()
    per_call_ns = disabled_telemetry_ns_per_call()
    fraction = per_call_ns * GUARDED_CALLS_PER_GALMORPH / 1e6 / results["galmorph_64"]["fast_ms"]
    print(f"  batch parity vs reference: max drift {drift:.3e} (tolerance {PARITY_TOL:.0e})")
    print(f"  disabled telemetry: {per_call_ns:.0f} ns/call x {GUARDED_CALLS_PER_GALMORPH} "
          f"= {fraction:.2%} of a galMorph job (budget {TELEMETRY_BUDGET:.0%})")
    return {
        "repeats": repeats,
        "results": results,
        "parity": {"max_abs_drift": drift, "tolerance": PARITY_TOL},
        "telemetry": {
            "disabled_overhead_ns_per_call": round(per_call_ns, 1),
            "disabled_overhead_frac_of_galmorph": round(fraction, 5),
        },
    }


def check_morphology(entry: dict) -> list[str]:
    problems = []
    for name, floor in FLOORS.items():
        got = entry["results"][name]["speedup"]
        if got < floor:
            problems.append(f"{name} speed-up {got:.2f}x is below its {floor:.1f}x floor")
    drift = entry["parity"]["max_abs_drift"]
    if not drift <= PARITY_TOL:
        problems.append(f"batch parity drift {drift:.3e} exceeds {PARITY_TOL:.0e}")
    fraction = entry["telemetry"]["disabled_overhead_frac_of_galmorph"]
    if fraction > TELEMETRY_BUDGET:
        problems.append(
            f"disabled telemetry costs {fraction:.2%} of a galMorph job, "
            f"budget {TELEMETRY_BUDGET:.0%}"
        )
    return problems


# -- chaos: byte-identical recovery, resilience-layer cost ----------------------------
#: Max cost of the disabled fault hooks plus the always-on resilience
#: boundary, relative to run wall time.
LAYER_BUDGET = 0.01

#: Cluster small enough for CI, large enough to cross every hook surface.
CHAOS_CLUSTER = "A3526"


def armed_boundary_unit_cost(iterations: int) -> float:
    """Seconds one crossing of the always-on resilience boundary adds.

    Every environment retries its service calls and keeps a site-health
    ledger, fault plan or not: a call site pays ``retry_call`` around its
    function (timed against the bare call) and a DAG node pays a
    ``record_success`` plus the planner's ``filter_available`` (timed
    whole).  Both use the minimum of three rounds; noise only adds time.
    """
    sites = ["isi", "uwisc", "fnal"]
    health = SiteHealthTracker()

    def noop() -> None:
        return None

    def armed() -> None:
        for _ in range(iterations):
            retry_call(noop, DEFAULT_RETRY_POLICY)

    def bare() -> None:
        for _ in range(iterations):
            noop()

    def ledger() -> None:
        for _ in range(iterations):
            health.record_success("isi")
            health.filter_available(sites)

    armed_s, bare_s, ledger_s = timed_rounds(3, armed, bare, ledger)
    retry_s = max(0.0, min(armed_s) - min(bare_s))
    return (retry_s + min(ledger_s)) / iterations


def fault_hook_overhead(quick: bool) -> dict:
    """A fault-free analysis, and what its resilience layer costs.

    ``rls.exists`` carries the canonical disabled-path shape — an ``is not
    None`` test before dispatching to the raw implementation — so
    (wrapped - raw) isolates what a disabled fault hook adds; timing noise
    below zero clamps to zero.  :func:`armed_boundary_unit_cost` adds what
    is always on.  Each unit cost is scaled by the same generous over-count
    of crossings in the run: every RLS query, every service call (queries
    + per-galaxy fetches + polls, six per galaxy), two per DAG node
    (launch decision + health bookkeeping) and 100 for the campaign's
    fixed costs.  The budget holds the two fractions' sum.
    """
    env = build_demo_environment(clusters=[demonstration_cluster(CHAOS_CLUSTER)])
    t0 = time.perf_counter()
    session = env.portal.run_analysis(CHAOS_CLUSTER)
    wall_s = time.perf_counter() - t0
    if not session.merged:
        raise RuntimeError(f"fault-free analysis of {CHAOS_CLUSTER} produced no rows")

    report = list(env.compute_service.requests.values())[-1].report
    nodes = 0 if report is None else len(report.compute_runs) + len(report.transfer_runs)
    rls = env.vds.rls
    crossings = rls.query_count + 6 * len(session.merged) + 2 * nodes + 100

    lfn = "bench-probe.fit"
    iterations = 2_000 if quick else 20_000

    def wrapped() -> None:
        for _ in range(iterations):
            rls.exists(lfn)

    def raw() -> None:
        for _ in range(iterations):
            rls._exists_impl(lfn)  # noqa: SLF001 - the pre-hook code path

    wrapped_s, raw_s = timed_rounds(3, wrapped, raw)
    unit_cost_s = max(0.0, (min(wrapped_s) - min(raw_s)) / iterations)
    armed_unit_s = armed_boundary_unit_cost(iterations)
    overhead_s = unit_cost_s * crossings
    armed_s = armed_unit_s * crossings
    fraction = overhead_s / wall_s if wall_s > 0 else 0.0
    armed_fraction = armed_s / wall_s if wall_s > 0 else 0.0
    return {
        "wall_s": round(wall_s, 4),
        "hook_unit_cost_ns": round(unit_cost_s * 1e9, 1),
        "hook_crossings": crossings,
        "overhead_s": round(overhead_s, 6),
        "overhead_fraction": round(fraction, 6),
        "armed_unit_cost_ns": round(armed_unit_s * 1e9, 1),
        "armed_overhead_s": round(armed_s, 6),
        "armed_overhead_fraction": round(armed_fraction, 6),
        "budget": LAYER_BUDGET,
        "within_budget": fraction + armed_fraction < LAYER_BUDGET,
    }


def measure_chaos(quick: bool) -> dict:
    hooks = fault_hook_overhead(quick)
    t0 = time.perf_counter()
    report = run_chaos_campaign(profile="recoverable", clusters=[CHAOS_CLUSTER])
    wall_s = time.perf_counter() - t0
    recovery = {
        "profile": report.profile,
        "recovered": report.recovered,
        "total_injected": sum(report.injected.values()),
        "requeues": sum(o.requeues for o in report.outcomes),
        "breaker_open_sites": [
            site for site, state in report.breaker_states.items() if state == "open"
        ],
        "wall_s": round(wall_s, 4),
    }
    print(
        f"chaos ({recovery['profile']}): "
        f"{'byte-identical' if recovery['recovered'] else 'MISMATCH'}; "
        f"{recovery['total_injected']} faults, {recovery['requeues']} requeue(s), "
        f"breakers open: {recovery['breaker_open_sites'] or 'none'}"
    )
    print(
        f"  disabled fault hooks: {hooks['hook_unit_cost_ns']:.0f} ns x "
        f"{hooks['hook_crossings']} = {hooks['overhead_fraction']:.4%} of "
        f"{hooks['wall_s']:.2f} s wall"
    )
    print(
        f"  armed retry/breaker boundary: {hooks['armed_unit_cost_ns']:.0f} ns x "
        f"{hooks['hook_crossings']} = {hooks['armed_overhead_fraction']:.4%} "
        f"(sum budget {LAYER_BUDGET:.0%})"
    )
    return {"disabled_overhead": hooks, "chaos_recovery": recovery}


def check_chaos(entry: dict) -> list[str]:
    problems = []
    if not entry["chaos_recovery"]["recovered"]:
        problems.append("recovered output differs from the fault-free baseline")
    cost = entry["disabled_overhead"]
    disabled, armed = cost["overhead_fraction"], cost["armed_overhead_fraction"]
    if not disabled + armed < LAYER_BUDGET:
        problems.append(
            f"disabled fault hooks ({disabled:.2%}) plus the armed resilience "
            f"boundary ({armed:.2%}) cost {disabled + armed:.2%} of run wall "
            f"time, budget {LAYER_BUDGET:.0%}"
        )
    return problems


# -- scale: the simulator's pinned makespan, byte identity under latency ------------
#: Campaign shape: waves × clusters per wave, galMorph jobs per cluster.
WAVES = 10
CLUSTERS_PER_WAVE = 20
JOBS_PER_CLUSTER = 10

CACHE_SITE = "nvo-storage"
SEED = 2003

#: The campaign's simulated makespan, in total and per wave, as every
#: ``BENCH_scale.json`` entry has recorded it.  Any change to the event
#: schedule (durations, draws, slot accounting, retry order) moves these.
STATIC_MAKESPAN_S = 4979.01
STATIC_WAVE_MAKESPANS_S = [
    580.66, 449.93, 570.77, 437.16, 498.27, 343.9, 561.43, 590.95, 525.19, 420.75
]


def build_wave(wave: int, selector: SiteSelector, pools: list[str]) -> ConcreteWorkflow:
    """One wave's workflow: per cluster, a fan of galMorph jobs placed by
    ``selector`` feeding a concatVOTable fan-in at the cache site."""
    wf = ConcreteWorkflow()
    for c in range(CLUSTERS_PER_WAVE):
        cluster = f"w{wave}c{c}"
        members = []
        for g in range(JOBS_PER_CLUSTER):
            gid = f"{cluster}g{g}"
            node_id = wf.add(
                ComputeNode(
                    f"gm-{gid}",
                    AbstractJob(gid, "galMorph", (f"{gid}.fit",), (f"{gid}.xml",)),
                    selector.choose(gid, pools),
                    "/usr/local/vds/bin/galmorph",
                )
            )
            members.append((node_id, f"{gid}.xml"))
        concat = wf.add(
            ComputeNode(
                f"concat-{cluster}",
                AbstractJob(
                    f"concat-{cluster}",
                    "concatVOTable",
                    tuple(lfn for _, lfn in members),
                    (f"{cluster}.votable",),
                ),
                CACHE_SITE,
                "/usr/local/vds/bin/concat-votable",
            )
        )
        for node_id, _ in members:
            wf.link(node_id, concat)
    return wf


def run_static_arm() -> dict:
    """The campaign: ``WAVES`` waves on one topology under ``slow-site``,
    jobs placed round-robin."""
    topology = GridTopology.default_demo()
    pools = sorted(topology.pools)
    selector = RoundRobinSiteSelector()
    makespans: list[float] = []
    t0 = time.perf_counter()
    for wave in range(WAVES):
        simulator = GridSimulator(
            topology,
            SimulationOptions(seed=SEED + wave),
            faults=get_profile("slow-site", seed=SEED).injector(),
        )
        report = simulator.execute(build_wave(wave, selector, pools))
        if not report.succeeded:
            raise RuntimeError(f"wave {wave} failed: {report.failed_nodes}")
        makespans.append(report.makespan)
    return {
        "waves": WAVES,
        "clusters": WAVES * CLUSTERS_PER_WAVE,
        "jobs": WAVES * CLUSTERS_PER_WAVE * (JOBS_PER_CLUSTER + 1),
        "makespan_s": round(sum(makespans), 2),
        "wave_makespans_s": [round(m, 2) for m in makespans],
        "wall_s": round(time.perf_counter() - t0, 4),
    }


def measure_scale(quick: bool) -> dict:
    static = run_static_arm()
    # The same slow-site plan on the *real* executor: wall stalls must
    # never change output bytes.
    t0 = time.perf_counter()
    report = run_chaos_campaign(profile="slow-site")
    identity = {
        "profile": report.profile,
        "recovered": report.recovered,
        "wall_s": round(time.perf_counter() - t0, 4),
    }
    print(
        f"scale ({WAVES} waves, {static['jobs']} jobs, simulated): makespan "
        f"{static['makespan_s']:.2f} s (pinned {STATIC_MAKESPAN_S:.2f} s); slow-site on "
        f"the real executor: {'byte-identical' if identity['recovered'] else 'MISMATCH'}"
    )
    return {"static": static, "byte_identity": identity}


def check_scale(entry: dict) -> list[str]:
    problems = []
    static = entry["static"]
    if static["makespan_s"] != STATIC_MAKESPAN_S:
        problems.append(
            f"simulated makespan {static['makespan_s']:.2f} s is not the pinned "
            f"{STATIC_MAKESPAN_S:.2f} s"
        )
    if static["wave_makespans_s"] != STATIC_WAVE_MAKESPANS_S:
        problems.append(f"per-wave makespans {static['wave_makespans_s']} moved")
    if not entry["byte_identity"]["recovered"]:
        problems.append("slow-site campaign was not byte-identical")
    return problems


# -- driver ---------------------------------------------------------------------------
#: trajectory file -> (measure(quick) -> entry body, check(entry) -> problems)
GATES = {
    "BENCH_morphology.json": (measure_morphology, check_morphology),
    "BENCH_chaos.json": (measure_chaos, check_chaos),
    "BENCH_scale.json": (measure_scale, check_scale),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats of the timed measurements")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any gate is missed")
    parser.add_argument("--out", type=Path, default=REPO_ROOT,
                        help="directory holding the BENCH_*.json trajectories "
                             f"(default {REPO_ROOT})")
    args = parser.parse_args(argv)

    stamp = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "quick" if args.quick else "full",
        "env": environment(),
    }
    problems: list[str] = []
    for filename, (measure, check) in GATES.items():
        entry = {**stamp, **measure(args.quick)}
        count = append_entry(args.out / filename, entry)
        print(f"  -> {args.out / filename} ({count} entries)")
        problems += [f"{filename}: {problem}" for problem in check(entry)]

    for problem in problems:
        print(f"GATE MISSED: {problem}", file=sys.stderr)
    if not problems:
        print("all gates hold")
    return 1 if problems and args.check else 0


if __name__ == "__main__":
    raise SystemExit(main())
