#!/usr/bin/env python3
"""The science result (Figure 7): rediscovering Dressler's relation.

Runs one rich cluster through the full system, then reproduces the Aladin
overlay and the Mirage scatter plots in ASCII: symmetric (elliptical)
galaxies crowd the X-ray-bright cluster core, asymmetric (spiral) galaxies
scatter through the outskirts.

Run:  python examples/dressler_relation.py [cluster]
"""

import sys

import numpy as np

from repro.catalog.crossmatch import radial_separation_deg
from repro.portal import build_demo_environment
from repro.portal.analysis import analyze_morphology_catalog, local_density
from repro.portal.dynamics import analyze_dynamics
from repro.portal.visualize import ascii_histogram, ascii_overlay, ascii_scatter
from repro.sky.registry_data import demonstration_cluster


def main(cluster_name: str = "A2029") -> None:
    cluster = demonstration_cluster(cluster_name)
    env = build_demo_environment(clusters=[cluster])
    session = env.portal.run_analysis(cluster_name)
    merged = session.merged

    analysis = analyze_morphology_catalog(merged, cluster)
    print(analysis.summary())

    print("\n=== the Figure 7 overlay (X-ray background + asymmetry-graded galaxies) ===\n")
    print(ascii_overlay(merged, cluster))

    rows = [r for r in merged if r["valid"]]
    ra = np.array([r["ra"] for r in rows])
    dec = np.array([r["dec"] for r in rows])
    asym = np.array([r["asymmetry"] for r in rows])
    conc = np.array([r["concentration"] for r in rows])
    radius = radial_separation_deg(cluster.center.ra, cluster.center.dec, ra, dec)
    density = local_density(ra, dec)

    print("\n=== asymmetry vs cluster-centric radius (Mirage-style scatter) ===\n")
    print(ascii_scatter(radius, asym, xlabel="radius [deg]", ylabel="asymmetry"))

    print("\n=== concentration vs local galaxy density ===\n")
    print(ascii_scatter(np.log10(density), conc, xlabel="log10 density", ylabel="concentration"))

    print("\n=== asymmetry distribution ===\n")
    print(ascii_histogram(asym, bins=12, label="asymmetry index"))

    print("\n=== dynamical state (the §2 science goal) ===\n")
    state = analyze_dynamics(merged, cluster, n_shuffles=300)
    print(state.summary())

    print("\nradial trend (quantile bins):")
    for center, a, f, n in zip(
        analysis.radial.bin_centers,
        analysis.radial.mean_asymmetry,
        analysis.radial.early_fraction,
        analysis.radial.counts,
    ):
        bar = "#" * int(round(f * 30))
        print(f"  r~{center:.3f} deg  mean A={a:.3f}  early fraction {f:4.2f} |{bar}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "A2029")
