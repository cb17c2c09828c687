"""Astronomical catalog substrate: sky geometry, cosmology, cross-matching.

Both NVO access protocols select data by *position on the sky* (the paper
notes "both of these interfaces use position in the sky as the primary data
selection criterion"), so correct spherical geometry underlies every
service.  The cosmology here supplies the (H0, Omega_m, flat) parameters the
``galMorph`` transformation of §3.2 receives, converting angular pixel
scales to physical ones at the cluster redshift.
"""

from repro.catalog.coords import ConeIndex, SkyPosition, angular_separation_deg
from repro.catalog.cosmology import FlatLambdaCDM
from repro.catalog.crossmatch import crossmatch_positions

__all__ = [
    "ConeIndex",
    "SkyPosition",
    "angular_separation_deg",
    "FlatLambdaCDM",
    "crossmatch_positions",
]
