"""Render individual galaxy images from morphological parameters.

The renderer turns a :class:`~repro.sky.cluster.GalaxyRecord` into a pixel
array whose *measurable* morphology (concentration, asymmetry — the
quantities of Conselice 2003 computed by :mod:`repro.morphology`) reflects
the generated type:

* ellipticals: smooth elliptical Sersic n=4, nearly symmetric;
* lenticulars: n=2.5, weak structure;
* spirals: exponential disk with logarithmic spiral arms plus an m=1
  lopsidedness mode — strongly asymmetric under 180-degree rotation;
* irregulars: shallow profile with superposed random clumps.

All work is vectorised over the pixel grid; per the HPC guides the hot path
is pure broadcasting with no Python-level pixel loops.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.sky.cluster import MORPH_RENDER_PARAMS, GalaxyRecord, MorphType
from repro.sky.profiles import pixel_integrated_sersic
from repro.sky.seeing import gaussian_blur

#: Per-band smooth-light flux factors by morphological type.  Early types
#: sit on the red sequence (faint in g, bright in i); late types are blue.
BAND_FLUX_FACTORS: dict[str, dict[MorphType, float]] = {
    "g": {
        MorphType.ELLIPTICAL: 0.55,
        MorphType.LENTICULAR: 0.65,
        MorphType.SPIRAL: 0.90,
        MorphType.IRREGULAR: 1.00,
    },
    "r": {t: 1.0 for t in MorphType},
    "i": {
        MorphType.ELLIPTICAL: 1.25,
        MorphType.LENTICULAR: 1.20,
        MorphType.SPIRAL: 1.00,
        MorphType.IRREGULAR: 0.90,
    },
}

#: Star-forming knots are dramatically brighter in the blue: the physical
#: reason asymmetry indices measured in g exceed those measured in i
#: ("galaxy images from different frequency bands could yield different
#: results", §4.2).
BAND_CLUMP_FACTORS: dict[str, float] = {"g": 2.2, "r": 1.0, "i": 0.55}


@lru_cache(maxsize=8)
def _pixel_grid(size: int) -> np.ndarray:
    """``np.indices((size, size), dtype=float)``, built once and read-only."""
    grid = np.indices((size, size), dtype=float)
    grid.flags.writeable = False
    return grid


def _elliptical_radius(
    size: int,
    x0: float,
    y0: float,
    ellipticity: float,
    position_angle_deg: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Elliptical radius and azimuth grids around (x0, y0)."""
    yy, xx = _pixel_grid(size)
    dx = xx - x0
    dy = yy - y0
    pa = np.deg2rad(position_angle_deg)
    # rotate into the galaxy frame
    u = dx * np.cos(pa) + dy * np.sin(pa)
    v = -dx * np.sin(pa) + dy * np.cos(pa)
    axis_ratio = 1.0 - np.clip(ellipticity, 0.0, 0.95)
    r = np.hypot(u, v / axis_ratio)
    phi = np.arctan2(v, u)
    return r, phi


#: The synthetic survey: pixel scale (arcsec/pixel, DSS-like), cutout edge
#: in pixels, seeing (PSF FWHM, arcsec), the counts of a magnitude-18 galaxy
#: and the filter images are taken in unless another is asked for.
PIXEL_SCALE_ARCSEC = 0.4
CUTOUT_SIZE = 64
PSF_FWHM_ARCSEC = 1.2
MAG18_COUNTS = 1.0e4
BAND = "r"


def render_galaxy_image(
    galaxy: GalaxyRecord,
    size: int = CUTOUT_SIZE,
    sky_level: float = 5.0,
    noise_sigma: float = 1.0,
    rng: np.random.Generator | None = None,
    band: str = BAND,
    noise_rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render a ``size x size`` float32 cutout of ``galaxy``.

    The galaxy is centred; flux scales with magnitude relative to mag 18.
    Returns sky-subtracted-able counts (sky left in, as real cutouts have).

    ``band`` selects the synthetic filter (g/r/i): it scales the smooth
    light by morphology colour and the star-forming knots by the blue/red
    factors above.  ``rng`` drives the galaxy's *structure* (knot layout —
    identical across bands, as physically it must be); ``noise_rng`` the
    pixel noise (defaults to ``rng``).
    """
    if size < 8:
        raise ValueError(f"cutout too small to be meaningful: {size}")
    if band not in BAND_FLUX_FACTORS:
        raise ValueError(f"unknown band {band!r}; available: {sorted(BAND_FLUX_FACTORS)}")
    if rng is None:
        rng = np.random.default_rng(0)
    if noise_rng is None:
        noise_rng = rng

    params = MORPH_RENDER_PARAMS[galaxy.morph]
    n = float(params["n"])  # type: ignore[arg-type]
    arm_amp = float(params["arm"])  # type: ignore[arg-type]

    flux = MAG18_COUNTS * 10.0 ** (-0.4 * (galaxy.magnitude - 18.0))
    flux *= BAND_FLUX_FACTORS[band][galaxy.morph]
    r_e_pix = max(galaxy.r_e_arcsec / PIXEL_SCALE_ARCSEC, 1.0)
    center = (size - 1) / 2.0

    r, phi = _elliptical_radius(size, center, center, galaxy.ellipticity, galaxy.position_angle_deg)
    image = pixel_integrated_sersic(
        (size, size),
        (center, center),
        r_e_pix,
        n,
        total_flux=flux,
        axis_ratio=1.0 - np.clip(galaxy.ellipticity, 0.0, 0.95),
        position_angle_rad=np.deg2rad(galaxy.position_angle_deg),
        radius_grid=r,
    )

    modulation = np.ones_like(image)
    if arm_amp > 0.0:
        # Two-armed logarithmic spiral: amplitude fades inside the core so
        # the centre stays smooth, pitch fixed at ~20 degrees.
        pitch = np.tan(np.deg2rad(20.0))
        with np.errstate(divide="ignore"):
            winding = np.where(r > 0.1, np.log(np.maximum(r, 0.1) / r_e_pix) / pitch, 0.0)
        arm_phase = 2.0 * (phi - winding)
        radial_gate = 1.0 - np.exp(-(r / (0.8 * r_e_pix)) ** 2)
        modulation += arm_amp * radial_gate * np.cos(arm_phase)

    if galaxy.asymmetry_true > 0.0:
        # m=1 lopsidedness grows with radius: breaks 180-degree symmetry by
        # an amount the asymmetry index will recover.
        lop_phase = np.deg2rad(galaxy.position_angle_deg * 3.1)
        radial_gate = np.clip(r / (2.0 * r_e_pix), 0.0, 1.5)
        modulation += 2.0 * galaxy.asymmetry_true * radial_gate * np.cos(phi - lop_phase)

    image *= np.clip(modulation, 0.0, None)

    clump_factor = BAND_CLUMP_FACTORS[band]
    if galaxy.asymmetry_true > 0.02:
        # Clumpy star formation: point-like knots are what a
        # centre-minimised asymmetry index actually responds to (an m=1
        # smooth mode is largely removable by recentering).  Knot flux
        # fraction scales with the intended asymmetry and the band.
        image += _clump_field(
            size, r_e_pix, flux * 1.6 * galaxy.asymmetry_true * clump_factor, center, rng
        )

    if galaxy.morph == MorphType.IRREGULAR:
        image += _clump_field(size, r_e_pix, flux * 0.5 * clump_factor, center, rng)

    # PSF: Gaussian with the requested FWHM.
    sigma_pix = PSF_FWHM_ARCSEC / PIXEL_SCALE_ARCSEC / 2.3548
    image = gaussian_blur(image, sigma_pix)

    image += sky_level
    image += noise_rng.normal(0.0, noise_sigma, image.shape)
    return image.astype(np.float32)


def _clump_field(
    size: int, r_e_pix: float, clump_flux: float, center: float, rng: np.random.Generator
) -> np.ndarray:
    """Star-forming clumps for irregulars: a handful of offset Gaussians."""
    n_clumps = int(rng.integers(3, 7))
    yy, xx = _pixel_grid(size)
    field = np.zeros((size, size))
    radii = rng.uniform(0.3, 1.8, n_clumps) * r_e_pix
    angles = rng.uniform(0.0, 2.0 * np.pi, n_clumps)
    weights = rng.dirichlet(np.ones(n_clumps))
    for radius, angle, weight in zip(radii, angles, weights):
        cx = center + radius * np.cos(angle)
        cy = center + radius * np.sin(angle)
        s = max(0.25 * r_e_pix, 1.0)
        field += weight * clump_flux / (2 * np.pi * s**2) * np.exp(
            -((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * s**2)
        )
    return field
