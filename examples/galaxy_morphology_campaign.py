#!/usr/bin/env python3
"""The full §5 campaign: eight clusters, three Condor pools, real pixels.

Reproduces the paper's headline run — "1152 compute jobs ... 1525 images,
corresponding to 30MB of data ... 2295 files" — and prints the measured
totals next to the published ones, plus the per-cluster science verdicts.

Run:  python examples/galaxy_morphology_campaign.py          (all 8, ~15 s)
      python examples/galaxy_morphology_campaign.py A3526    (one cluster)
"""

import sys
import time

from repro.portal import build_demo_environment
from repro.portal.campaign import run_campaign


def main(only: str | None = None) -> None:
    env = build_demo_environment()
    names = [only] if only else None

    t0 = time.time()
    report = run_campaign(env, cluster_names=names)
    elapsed = time.time() - t0

    print(report.totals_table())
    print(f"\nwall time for the whole campaign (real computation): {elapsed:.1f}s")
    print(f"pools used: {', '.join(report.pools_used())}")

    print(
        f"\n{'cluster':<8s} {'gal':>4s} {'jobs':>5s} {'xfers':>6s} "
        f"{'valid':>6s} {'A-r corr':>9s} {'dressler':>9s}"
    )
    for record in report.records:
        analysis, a = record.analysis, record.accounting
        corr = f"{analysis.asymmetry_radius_spearman:+.2f}" if analysis else "n/a"
        verdict = "yes" if (analysis and analysis.rediscovered) else "n/a"
        print(
            f"{record.cluster:<8s} {a.galaxies:>4d} {a.compute_jobs:>5d} "
            f"{a.transfers:>6d} {a.valid_measurements:>6d} {corr:>9s} {verdict:>9s}"
        )

    jobs_by_site: dict[str, int] = {}
    for record in report.records:
        for site, n in record.accounting.jobs_per_site.items():
            jobs_by_site[site] = jobs_by_site.get(site, 0) + n
    print("\ncompute jobs per site (the three-pool spread of §5 + the service host):")
    for site, n in sorted(jobs_by_site.items(), key=lambda kv: -kv[1]):
        print(f"  {site:<12s} {n:>5d}")

    full = [r.analysis for r in report.records if r.analysis]
    print(
        f"\nDressler density-morphology relation rediscovered in "
        f"{sum(a.rediscovered for a in full)}/{len(full)} clusters."
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else None)
