"""Scale benchmark for the SLO-driven adaptive execution layer.

A time-compressed 200-cluster campaign (simulated Grid, virtual clock)
run twice over a ``slow-site`` chaos plan — UWisc alive but lognormally
slow — and gated into ``BENCH_scale.json`` at the repo root:

1. **Static arm** — round-robin placement, provisioned slots, no
   speculation: the pre-adaptive system.
2. **Adaptive arm** — predictive placement over the shared latency
   estimator (history persists across waves), speculative straggler
   duplicates, and per-site autoscaling.

Gates (``--check``):

* adaptive makespan improvement ≥ ``1.4×`` over static (the CI
  ``scale-smoke`` phrasing: speculative makespan ≤ 0.7× static);
* the ``slow-site`` chaos campaign stays **byte-identical** to its
  fault-free twin (latency must never change bytes);
* the disabled adaptive layer costs **< 1%** of run wall time (per-run
  bookkeeping unit cost × a generous over-count of crossings).

Usage::

    PYTHONPATH=src python benchmarks/run_scale_bench.py --quick
    PYTHONPATH=src python benchmarks/run_scale_bench.py --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.adaptive import (  # noqa: E402
    AdaptiveController,
    AutoscaleConfig,
    PredictiveSiteSelector,
    SpeculationPolicy,
)
from repro.condor.pool import GridTopology  # noqa: E402
from repro.condor.simulator import GridSimulator, SimulationOptions  # noqa: E402
from repro.faults.chaos import run_chaos_campaign  # noqa: E402
from repro.faults.profiles import get_profile  # noqa: E402
from repro.pegasus.site_selector import RoundRobinSiteSelector, SiteSelector  # noqa: E402
from repro.workflow.abstract import AbstractJob  # noqa: E402
from repro.workflow.concrete import ComputeNode, ConcreteWorkflow  # noqa: E402

TRAJECTORY = REPO_ROOT / "BENCH_scale.json"

#: Required static/adaptive makespan ratio (≥ 1.4× ⇔ adaptive ≤ 0.71×).
MAKESPAN_GATE = 1.4

#: Maximum tolerated disabled-layer cost relative to simulator wall time.
OVERHEAD_BUDGET = 0.01

#: Campaign shape: clusters per wave × waves, galMorph jobs per cluster.
FULL_WAVES = 10
QUICK_WAVES = 4
CLUSTERS_PER_WAVE = 20
JOBS_PER_CLUSTER = 10

CACHE_SITE = "nvo-storage"
SEED = 2003


def build_wave(wave: int, selector: SiteSelector, pools: list[str]) -> ConcreteWorkflow:
    """One wave's workflow: per cluster, a fan of galMorph jobs placed by
    ``selector`` feeding a concatVOTable fan-in at the cache site."""
    wf = ConcreteWorkflow()
    for c in range(CLUSTERS_PER_WAVE):
        cluster = f"w{wave}c{c}"
        members = []
        for g in range(JOBS_PER_CLUSTER):
            gid = f"{cluster}g{g}"
            site = selector.choose(gid, pools)
            node_id = wf.add(
                ComputeNode(
                    f"gm-{gid}",
                    AbstractJob(gid, "galMorph", (f"{gid}.fit",), (f"{gid}.xml",)),
                    site,
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


def run_arm(adaptive: bool, waves: int, slow: bool = True) -> dict:
    """One campaign arm: ``waves`` waves on a fresh topology; the adaptive
    arm's estimator (and hence placement + speculation budgets) persists
    across waves the way a long-running service's would."""
    topology = GridTopology.default_demo()
    pools = sorted(topology.pools)
    controller = None
    selector: SiteSelector = RoundRobinSiteSelector()
    if adaptive:
        controller = AdaptiveController(
            speculation=SpeculationPolicy(),
            autoscale=AutoscaleConfig(cooldown_s=20.0),
            predictive=True,
        )
        selector = PredictiveSiteSelector(
            RoundRobinSiteSelector(),
            controller.estimator,
            capacities=topology.capacities(),
        )
    makespans: list[float] = []
    speculated = won = wasted = 0
    t0 = time.perf_counter()
    for wave in range(waves):
        workflow = build_wave(wave, selector, pools)
        simulator = GridSimulator(
            topology,
            SimulationOptions(seed=SEED + wave),
            faults=get_profile("slow-site", seed=SEED).injector() if slow else None,
            adaptive=controller,
        )
        report = simulator.execute(workflow)
        assert report.succeeded, f"wave {wave} failed: {report.failed_nodes}"
        makespans.append(report.makespan)
        speculated += report.speculated
        won += report.spec_won
        wasted += report.spec_wasted
    wall_s = time.perf_counter() - t0
    out = {
        "waves": waves,
        "clusters": waves * CLUSTERS_PER_WAVE,
        "jobs": waves * CLUSTERS_PER_WAVE * (JOBS_PER_CLUSTER + 1),
        "makespan_s": round(sum(makespans), 2),
        "wave_makespans_s": [round(m, 2) for m in makespans],
        "wall_s": round(wall_s, 4),
        "speculated": speculated,
        "spec_won": won,
        "spec_wasted": wasted,
    }
    if controller is not None:
        out["estimator"] = controller.snapshot()["sites"]
        if controller.last_autoscaler is not None:
            out["autoscale"] = controller.last_autoscaler.snapshot()
    return out


def slo_attainment(arm: dict, deadline_s: float) -> float:
    """Fraction of waves that met the per-wave campaign deadline."""
    waves = arm["wave_makespans_s"]
    return round(sum(1 for m in waves if m <= deadline_s) / len(waves), 4)


def _measure_bookkeeping_unit_cost_s(iterations: int) -> float:
    """Per-run cost of the speculation-capable bookkeeping the disabled
    path still executes: the engine's run record and run table, the
    duplicate/rival tests at finish, and the simulator backend's own run
    table.  A deliberate over-count — a loop with no speculation support
    would still need some record of what is in flight."""
    from repro.condor.engine import _Run

    engine_runs: dict[int, _Run] = {}
    backend_runs: dict[int, tuple] = {}
    t0 = time.perf_counter()
    for i in range(iterations):
        engine_runs[i] = _Run("node", None, "site", 0.0, False, i)
        backend_runs[i] = ("node", None, "site", 1, True)
        _ = backend_runs.pop(i, None)
        run = engine_runs.get(i)
        del engine_runs[i]
        _ = run.duplicate
        _ = run.rival is not None
    return (time.perf_counter() - t0) / iterations


def bench_disabled_overhead(static_arm: dict, quick: bool) -> dict:
    """Scaled bookkeeping cost vs the measured static-arm wall time."""
    unit_cost_s = _measure_bookkeeping_unit_cost_s(20_000 if quick else 200_000)
    # One microbench iteration performs a full run lifecycle (start-side
    # inserts + finish-side probes and pops), so one crossing per job,
    # with 25% headroom for the policy None-tests the loop also hits.
    crossings = round(1.25 * static_arm["jobs"])
    overhead_s = unit_cost_s * crossings
    wall_s = static_arm["wall_s"]
    fraction = overhead_s / wall_s if wall_s > 0 else 0.0
    return {
        "unit_cost_ns": round(unit_cost_s * 1e9, 1),
        "crossings": crossings,
        "overhead_s": round(overhead_s, 6),
        "overhead_fraction": round(fraction, 6),
        "budget": OVERHEAD_BUDGET,
        "within_budget": fraction < OVERHEAD_BUDGET,
    }


def bench_byte_identity() -> dict:
    """The slow-site chaos campaign on the *real* executor: latency (wall
    stalls + speculation) must never change output bytes."""
    t0 = time.perf_counter()
    report = run_chaos_campaign(profile="slow-site")
    wall_s = time.perf_counter() - t0
    return {
        "profile": report.profile,
        "recovered": report.recovered,
        "wall_s": round(wall_s, 4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="fewer waves/iterations")
    parser.add_argument(
        "--check", action="store_true",
        help="fail unless the makespan, byte-identity and overhead gates hold",
    )
    args = parser.parse_args(argv)

    waves = QUICK_WAVES if args.quick else FULL_WAVES

    # fault-free static reference: the per-wave SLO deadline is 1.5× the
    # time the campaign takes when nothing is slow
    reference = run_arm(adaptive=False, waves=1, slow=False)
    deadline_s = 1.5 * reference["wave_makespans_s"][0]

    static = run_arm(adaptive=False, waves=waves)
    adaptive = run_arm(adaptive=True, waves=waves)
    ratio = (
        static["makespan_s"] / adaptive["makespan_s"]
        if adaptive["makespan_s"] > 0
        else float("inf")
    )
    overhead = bench_disabled_overhead(static, quick=args.quick)
    identity = bench_byte_identity()

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "mode": "quick" if args.quick else "full",
        "deadline_s": round(deadline_s, 2),
        "static": static,
        "adaptive": adaptive,
        "makespan_ratio": round(ratio, 4),
        "makespan_gate": MAKESPAN_GATE,
        "slo_attainment": {
            "static": slo_attainment(static, deadline_s),
            "adaptive": slo_attainment(adaptive, deadline_s),
        },
        "disabled_overhead": overhead,
        "byte_identity": identity,
    }

    history = {"history": []}
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text())
    history["history"].append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=2) + "\n")

    print(
        f"static   {static['makespan_s']:9.1f}s over {waves} waves "
        f"({static['jobs']} jobs)"
    )
    print(
        f"adaptive {adaptive['makespan_s']:9.1f}s  "
        f"speculated={adaptive['speculated']} won={adaptive['spec_won']} "
        f"wasted={adaptive['spec_wasted']}"
    )
    print(
        f"makespan ratio {ratio:.2f}x (gate {MAKESPAN_GATE}x): "
        f"{'OK' if ratio >= MAKESPAN_GATE else 'MISSED'}"
    )
    print(
        f"SLO attainment (deadline {deadline_s:.0f}s/wave): "
        f"static {entry['slo_attainment']['static']:.0%} -> "
        f"adaptive {entry['slo_attainment']['adaptive']:.0%}"
    )
    print(
        f"byte identity under slow-site: "
        f"{'byte-identical' if identity['recovered'] else 'MISMATCH'} "
        f"({identity['wall_s']:.1f}s wall)"
    )
    print(
        f"disabled-layer overhead: {overhead['overhead_fraction']:.4%} of "
        f"{static['wall_s']:.2f}s wall -> budget {OVERHEAD_BUDGET:.0%}: "
        f"{'OK' if overhead['within_budget'] else 'EXCEEDED'}"
    )
    print(f"trajectory -> {TRAJECTORY}")

    if args.check:
        failed = False
        if ratio < MAKESPAN_GATE:
            print(
                f"FAIL: makespan ratio {ratio:.2f}x below {MAKESPAN_GATE}x",
                file=sys.stderr,
            )
            failed = True
        if entry["slo_attainment"]["adaptive"] < entry["slo_attainment"]["static"]:
            print("FAIL: adaptive SLO attainment regressed vs static", file=sys.stderr)
            failed = True
        if not identity["recovered"]:
            print("FAIL: slow-site campaign was not byte-identical", file=sys.stderr)
            failed = True
        if not overhead["within_budget"]:
            print("FAIL: disabled-layer overhead exceeds budget", file=sys.stderr)
            failed = True
        if failed:
            return 1
        print("checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
