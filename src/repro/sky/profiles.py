"""Sersic surface-brightness profiles.

The Sersic (1968) law ``I(r) = I_e exp(-b_n ((r/r_e)^(1/n) - 1))`` spans the
morphological sequence the prototype classifies: ``n = 4`` is the de
Vaucouleurs profile of ellipticals (centrally concentrated), ``n = 1`` the
exponential disk of spirals (diffuse).  The concentration index measured by
:mod:`repro.morphology` responds directly to ``n``, which is how synthetic
morphology becomes *measurable* morphology.
"""

from __future__ import annotations

import math

import numpy as np

#: ``Gamma(2n)`` for the Sersic indices the renderer draws
#: (``MORPH_RENDER_PARAMS``), as ``scipy.special.gamma`` gives them:
#: ``math.gamma(1.6)`` is one ulp below scipy's, which would move every
#: irregular's cutout.  Other indices use :func:`math.gamma`.
GAMMA_2N: dict[float, float] = {4.0: 5040.0, 2.5: 24.0, 1.0: 1.0, 0.8: 0.8935153492876904}


def sersic_b(n: float) -> float:
    """The b_n coefficient making r_e the half-light radius.

    Solves ``Gamma(2n) = 2 gamma(2n, b)`` via the Ciotti & Bertin (1999)
    asymptotic expansion, accurate to <1e-4 for n >= 0.36 (covers the
    n in [0.5, 6] range used here).
    """
    if n <= 0:
        raise ValueError(f"Sersic index must be positive: {n}")
    return 2.0 * n - 1.0 / 3.0 + 4.0 / (405.0 * n) + 46.0 / (25515.0 * n**2) + 131.0 / (1148175.0 * n**3)


def sersic_profile(r: np.ndarray, r_e: float, n: float, total_flux: float = 1.0) -> np.ndarray:
    """Surface brightness at radius ``r`` for a Sersic profile.

    Normalised so the profile integrates (over the plane, circular symmetry)
    to ``total_flux``:  ``L = 2 pi n Gamma(2n) e^b b^(-2n) I_e r_e^2``.
    """
    if r_e <= 0:
        raise ValueError(f"effective radius must be positive: {r_e}")
    b = sersic_b(n)
    gamma_2n = GAMMA_2N[n] if n in GAMMA_2N else math.gamma(2.0 * n)
    luminosity_factor = 2.0 * np.pi * n * gamma_2n * np.exp(b) * b ** (-2.0 * n) * r_e**2
    i_e = total_flux / luminosity_factor
    r = np.asarray(r, dtype=float)
    return i_e * np.exp(-b * (np.maximum(r, 0.0) / r_e) ** (1.0 / n) + b)


def pixel_integrated_sersic(
    shape: tuple[int, int],
    center: tuple[float, float],
    r_e: float,
    n: float,
    total_flux: float = 1.0,
    axis_ratio: float = 1.0,
    position_angle_rad: float = 0.0,
    radius_grid: np.ndarray | None = None,
) -> np.ndarray:
    """Sersic image with proper pixel integration of the cuspy core.

    High-n profiles are (integrably) singular at r=0; sampling the profile
    at pixel *centres* puts wildly too much flux into the central pixel and
    corrupts every concentration measurement downstream.  This renderer
    samples at pixel centres everywhere except a 9 x 9 core box, which it
    averages over an 8 x 8 subpixel grid.

    ``center`` is (y0, x0) in 0-based pixel coordinates.  A caller that
    already holds the elliptical radius at every pixel centre (the
    renderer, which also needs it for the arms) passes it as
    ``radius_grid`` instead of having it computed a second time.
    """
    if not 0.0 < axis_ratio <= 1.0:
        raise ValueError(f"axis ratio must be in (0, 1]: {axis_ratio}")
    y0, x0 = center

    def radius(py: np.ndarray, px: np.ndarray) -> np.ndarray:
        dx = px - x0
        dy = py - y0
        u = dx * np.cos(position_angle_rad) + dy * np.sin(position_angle_rad)
        v = -dx * np.sin(position_angle_rad) + dy * np.cos(position_angle_rad)
        return np.hypot(u, v / axis_ratio)

    if radius_grid is None:
        radius_grid = radius(*np.indices(shape, dtype=float))
    image = sersic_profile(radius_grid, r_e, n, total_flux)

    w, oversample = 4, 8
    cy, cx = int(round(y0)), int(round(x0))
    y_lo, y_hi = max(cy - w, 0), min(cy + w + 1, shape[0])
    x_lo, x_hi = max(cx - w, 0), min(cx + w + 1, shape[1])
    if y_lo < y_hi and x_lo < x_hi:
        sub = (np.arange(oversample) + 0.5) / oversample - 0.5
        oy, ox = np.meshgrid(sub, sub, indexing="ij")
        box_y, box_x = np.mgrid[y_lo:y_hi, x_lo:x_hi]
        # (By, Bx, os, os) broadcast of subpixel sample points
        py = box_y[..., None, None] + oy
        px = box_x[..., None, None] + ox
        values = sersic_profile(radius(py, px), r_e, n, total_flux)
        image[y_lo:y_hi, x_lo:x_hi] = values.mean(axis=(-1, -2))
    return image
