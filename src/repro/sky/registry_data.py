"""The eight demonstration clusters of the §5 campaign.

"We used our prototype to separately analyze eight different galaxy
clusters.  The number of galaxies processed for each cluster ranged from 37
to 561."  The counts below reproduce that range and are sized so the full
campaign hits the paper's totals:

* compute jobs   = sum(members) + 8 concat jobs = 1144 + 8 = 1152
* file transfers = 1144 stage-ins + 1144 result stage-outs + 7 final
  VOTable stage-outs (one cluster's output is answered from the RLS cache)
  = 2295
* images handled = 1144 cutouts + 381 context images found by the portal's
  three SIA archive searches = 1525

Coordinates and redshifts are those of real Abell/MS clusters so that the
synthetic sky is astronomically plausible; the member catalogs themselves
are synthesised (see DESIGN.md substitution table).
"""

from __future__ import annotations

from repro.catalog.coords import SkyPosition
from repro.sky.cluster import ClusterModel
from repro.utils.rng import DEMO_SEED


#: name -> (ra, dec, z, n_members, context image count)
_DEMO_SPEC: list[tuple[str, float, float, float, int, int]] = [
    ("A3526", 192.200, -41.310, 0.0114, 37, 47),
    ("MS0451", 73.545, -3.018, 0.5386, 52, 47),
    ("A2390", 328.403, 17.696, 0.2280, 68, 48),
    ("A0119", 14.067, -1.255, 0.0442, 84, 48),
    ("A0496", 68.408, -13.262, 0.0329, 97, 47),
    ("A0085", 10.460, -9.303, 0.0551, 110, 48),
    ("A2029", 227.734, 5.745, 0.0773, 135, 48),
    ("A1656", 194.953, 27.981, 0.0231, 561, 48),
]


def _build(name: str, ra: float, dec: float, z: float, n: int, n_context: int) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(ra, dec),
        redshift=z,
        n_galaxies=n,
        # richer clusters are angularly larger in this demo sky
        core_radius_deg=0.03 + 0.00008 * n,
        tidal_radius_deg=0.35 + 0.0006 * n,
        seed=DEMO_SEED,
        context_image_count=n_context,
    )


#: The demonstration registry, ordered by member count (smallest first).
DEMONSTRATION_CLUSTERS: tuple[ClusterModel, ...] = tuple(
    _build(*spec) for spec in _DEMO_SPEC
)


def demonstration_cluster(name: str) -> ClusterModel:
    """Look up a demonstration cluster by name (KeyError if absent)."""
    for cluster in DEMONSTRATION_CLUSTERS:
        if cluster.name == name:
            return cluster
    raise KeyError(
        f"unknown demonstration cluster {name!r}; "
        f"available: {[c.name for c in DEMONSTRATION_CLUSTERS]}"
    )
