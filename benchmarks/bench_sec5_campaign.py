"""Section 5: the headline campaign — all eight clusters, full accounting.

Paper: "eight different galaxy clusters.  The number of galaxies processed
for each cluster ranged from 37 to 561 ... a total of 1152 compute jobs ...
1525 images, corresponding to 30MB of data ... the transfer of 2295 files"
on three Condor pools.  This bench runs the complete system (real
computation, real bytes) and reports measured-vs-paper for every quantity.
"""

from __future__ import annotations

from repro.portal.campaign import run_campaign
from repro.utils.units import MB, format_bytes

PAPER = {"clusters": 8, "min_gal": 37, "max_gal": 561, "jobs": 1152, "images": 1525, "transfers": 2295}


def test_sec5_full_campaign(benchmark, record_table, demo_env):
    report = benchmark.pedantic(
        lambda: run_campaign(demo_env), rounds=1, iterations=1
    )

    lo, hi = report.galaxy_range
    assert report.clusters == PAPER["clusters"]
    assert (lo, hi) == (PAPER["min_gal"], PAPER["max_gal"])
    assert report.compute_jobs == PAPER["jobs"]
    assert report.images == PAPER["images"]
    assert report.transfers == PAPER["transfers"]
    assert abs(report.image_bytes - 30 * MB) / (30 * MB) < 0.05
    # three Condor pools carried the galMorph load (+ the service host for concat)
    assert {"isi", "uwisc", "fnal"} <= set(report.pools_used())
    # science: early types central in every cluster (the paper's claim);
    # the stricter asymmetry-radius trend holds wherever statistics allow
    analyses = [r.analysis for r in report.records if r.analysis is not None]
    assert all(a.rediscovered for a in analyses)
    big = [a for a in analyses if a.n_valid >= 50]
    assert all(a.asymmetry_trend_positive for a in big)

    lines = [report.totals_table(), ""]
    lines.append(
        f"{'cluster':<8s} {'gal':>4s} {'jobs':>5s} {'xfers':>6s} {'in/x/out':>12s} "
        f"{'valid':>6s} {'dressler':>9s}"
    )
    for r in report.records:
        flags = "yes" if (r.analysis and r.analysis.rediscovered) else "n/a"
        lines.append(
            f"{r.cluster:<8s} {r.galaxies:>4d} {r.compute_jobs:>5d} {r.transfers:>6d} "
            f"{r.stage_in:>4d}/{r.inter_site:>3d}/{r.stage_out:>2d} "
            f"{r.valid_measurements:>6d} {flags:>9s}"
        )
    lines.append("")
    lines.append(f"total image data: {format_bytes(report.image_bytes)} (paper: 30 MB)")
    lines.append(
        "note: one stage-in was avoided by Pegasus replica selection — a cutout "
        "of A1656 was already materialised at fnal (the virtual-data reuse of §3.2)."
    )
    record_table("sec5_campaign", "\n".join(lines))
