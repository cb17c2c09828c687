"""Synthetic X-ray surface-brightness maps (ROSAT / Chandra stand-ins).

Cluster X-ray emission traces the hot intra-cluster gas; the standard
description is the isothermal beta model (Cavaliere & Fusco-Femiano 1976):

    S(r) = S0 * (1 + (r/r_c)^2)^(0.5 - 3 beta)

The portal overlays this on the optical mosaic (Figure 7 shows "x-ray
emission ... in blue"), and its radial gradient gives the science model its
x-ray surface-brightness axis.
"""

from __future__ import annotations

import numpy as np

from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.wcs import TanWCS
from repro.sky.cluster import ClusterModel
from repro.utils.rng import derive_rng


#: The beta-model slope of a relaxed cluster's gas halo.
BETA = 0.67


def beta_model(r: np.ndarray, s0: float, r_core: float) -> np.ndarray:
    """Beta-model surface brightness at radius ``r`` (same units as r_core)."""
    if r_core <= 0:
        raise ValueError(f"core radius must be positive: {r_core}")
    r = np.asarray(r, dtype=float)
    return s0 * (1.0 + (r / r_core) ** 2) ** (0.5 - 3.0 * BETA)


def render_xray_map(
    cluster: ClusterModel,
    size: int = 256,
) -> ImageHDU:
    """Render a Poisson-noised X-ray count map of the cluster gas halo."""
    instrument = "SYNTH-ROSAT"
    field = 2.2 * cluster.tidal_radius_deg
    scale_deg = field / size
    wcs = TanWCS(
        crval1=cluster.center.ra,
        crval2=cluster.center.dec,
        crpix1=(size + 1) / 2.0,
        crpix2=(size + 1) / 2.0,
        cdelt1=-scale_deg,
        cdelt2=scale_deg,
    )
    yy, xx = np.indices((size, size), dtype=float)
    r_pix = np.hypot(xx - (size - 1) / 2.0, yy - (size - 1) / 2.0)
    r_core_pix = cluster.core_radius_deg * 1.5 / scale_deg  # gas core wider than galaxy core
    expected = beta_model(r_pix, 50.0, r_core_pix) + 0.3  # central counts + background
    rng = derive_rng(cluster.seed, "xray", cluster.name, instrument)
    counts = rng.poisson(expected).astype(np.float32)

    header = Header()
    header.set("OBJECT", cluster.name, "cluster field")
    header.set("TELESCOP", instrument, "synthetic x-ray mission")
    header.set("BUNIT", "counts")
    header.set("BETA", BETA, "beta-model slope")
    wcs.to_header(header)
    return ImageHDU(counts, header)
