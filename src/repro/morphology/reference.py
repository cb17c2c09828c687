"""Naive reference implementations of the morphology kernels.

These are the seed (pre-fast-path) implementations, kept verbatim except
for one semantic fix that the optimised kernels also carry: the asymmetry
noise-floor correction is evaluated at the *minimising* centre rather than
inconsistently at the input centre.

They exist for two reasons:

1. **Parity**: the golden tests assert that the geometry-cached fast path
   in :mod:`repro.morphology.measures` / :mod:`repro.morphology.petrosian`
   matches these implementations to <= 1e-9 on rendered cutouts.
2. **Trajectory benchmarking**: ``benchmarks/gates.py`` times these
   against the fast path and records the speedups in
   ``BENCH_morphology.json`` so later PRs can gate on regressions.

Do not "optimise" this module — its value is being the slow, obviously
correct baseline.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from repro.catalog.cosmology import FlatLambdaCDM
from repro.fits.hdu import ImageHDU
from repro.morphology.background import estimate_background
from repro.morphology.measures import FRACTIONS
from repro.morphology.petrosian import BIN_WIDTH, ETA
from repro.morphology.pipeline import MorphologyResult
from repro.morphology.segmentation import central_source_mask

__all__ = [
    "curve_of_growth_radii_reference",
    "concentration_index_reference",
    "asymmetry_index_reference",
    "average_surface_brightness_reference",
    "radial_profile_reference",
    "petrosian_radius_reference",
    "source_centroid_reference",
    "galmorph_reference",
]


def _aperture_flux_reference(image, center, radius):
    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    mask = np.hypot(yy - cy, xx - cx) <= radius
    return float(image[mask].sum())


def curve_of_growth_radii_reference(image, center, total_radius):
    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    r = np.hypot(yy - cy, xx - cx).ravel()
    flux = np.asarray(image, dtype=float).ravel()
    inside = r <= total_radius
    r, flux = r[inside], flux[inside]
    order = np.argsort(r)
    r_sorted = r[order]
    cumulative = np.cumsum(flux[order])
    total = cumulative[-1] if cumulative.size else 0.0
    if total <= 0:
        raise ValueError("non-positive total flux inside the measurement aperture")
    out = []
    for fraction in FRACTIONS:
        i = int(np.searchsorted(cumulative, fraction * total))
        out.append(float(r_sorted[min(i, r_sorted.size - 1)]))
    return tuple(out)


def concentration_index_reference(image, center, total_radius):
    r20, r80 = curve_of_growth_radii_reference(image, center, total_radius)
    r20 = max(r20, 0.5)
    if r80 <= 0:
        raise ValueError("r80 is non-positive; source is unresolved")
    return float(5.0 * np.log10(r80 / r20))


def asymmetry_index_reference(
    image, center, radius, background_sigma=0.0, optimize_center=True
):
    """Seed 3x3 search: nine full ``ndimage.shift`` calls, the aperture mask
    rebuilt every evaluation.  Noise correction at the minimising centre
    (the semantic fix shared with the fast path)."""
    image = np.asarray(image, dtype=float)
    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    acy = (image.shape[0] - 1) / 2.0
    acx = (image.shape[1] - 1) / 2.0

    def stats_at(oy: float, ox: float) -> tuple[float, float]:
        ay, ax = cy + oy, cx + ox
        centred = ndimage.shift(image, (acy - ay, acx - ax), order=1, mode="nearest")
        rotated = centred[::-1, ::-1]
        aperture = np.hypot(yy - acy, xx - acx) <= radius
        denom = 2.0 * np.abs(centred[aperture]).sum()
        residual = np.abs(centred[aperture] - rotated[aperture]).sum()
        return float(residual), float(denom)

    offsets = [0.0] if not optimize_center else [-0.5, 0.0, 0.5]
    best = np.inf
    best_denom = 0.0
    for oy in offsets:
        for ox in offsets:
            residual, denom = stats_at(oy, ox)
            value = residual / denom if denom > 0 else np.inf
            if value < best:
                best, best_denom = value, denom
    if not np.isfinite(best):
        raise ValueError("asymmetry undefined: no flux inside the aperture")

    if background_sigma > 0.0:
        aperture = np.hypot(yy - acy, xx - acx) <= radius
        noise_term = aperture.sum() * 2.0 * background_sigma / np.sqrt(np.pi) / best_denom
        best = best - noise_term
    return float(max(best, 0.0))


def average_surface_brightness_reference(
    image, center, radius, pixel_scale_arcsec, zero_point=0.0
):
    if pixel_scale_arcsec <= 0:
        raise ValueError(f"pixel scale must be positive: {pixel_scale_arcsec}")
    flux = _aperture_flux_reference(image, center, radius)
    if flux <= 0:
        raise ValueError("non-positive aperture flux; cannot form a magnitude")
    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    n_pix = int((np.hypot(yy - cy, xx - cx) <= radius).sum())
    area_arcsec2 = n_pix * pixel_scale_arcsec**2
    return float(zero_point - 2.5 * np.log10(flux / area_arcsec2))


def radial_profile_reference(image, center):
    bin_width = BIN_WIDTH
    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    r = np.hypot(yy - cy, xx - cx)
    max_radius = float(r.max())
    nbins = max(int(np.ceil(max_radius / bin_width)), 1)
    idx = np.minimum((r / bin_width).astype(int), nbins)
    flat_idx = idx.ravel()
    sums = np.bincount(flat_idx, weights=np.asarray(image).ravel(), minlength=nbins + 1)[:nbins]
    counts = np.bincount(flat_idx, minlength=nbins + 1)[:nbins]
    radii = (np.arange(nbins) + 0.5) * bin_width
    with np.errstate(invalid="ignore", divide="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return radii, means


def petrosian_radius_reference(image, center):
    """Seed two-pass Petrosian: the radial binning is built twice."""
    eta, bin_width = ETA, BIN_WIDTH
    radii, mu_local = radial_profile_reference(image, center)
    if radii.size < 3:
        raise ValueError("image too small for a Petrosian profile")

    cy, cx = center
    yy, xx = np.indices(image.shape, dtype=float)
    r = np.hypot(yy - cy, xx - cx)
    nbins = radii.size
    idx = np.minimum((r / bin_width).astype(int), nbins)
    sums = np.bincount(idx.ravel(), weights=np.asarray(image).ravel(), minlength=nbins + 1)[:nbins]
    counts = np.bincount(idx.ravel(), minlength=nbins + 1)[:nbins]
    cum_flux = np.cumsum(sums)
    cum_area = np.cumsum(counts)
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_mean = np.where(cum_area > 0, cum_flux / np.maximum(cum_area, 1), 0.0)

    valid = mu_mean > 0
    ratio = np.where(valid, mu_local / np.where(valid, mu_mean, 1.0), np.inf)
    below = np.nonzero((ratio[1:] < eta))[0]
    if below.size == 0:
        raise ValueError("Petrosian ratio never falls below eta inside the frame")
    i = int(below[0]) + 1
    r0, r1 = radii[i - 1], radii[i]
    f0, f1 = ratio[i - 1], ratio[i]
    if not np.isfinite(f0) or f1 == f0:
        return float(r1)
    t = (eta - f0) / (f1 - f0)
    return float(r0 + np.clip(t, 0.0, 1.0) * (r1 - r0))


def source_centroid_reference(image, mask):
    if not mask.any():
        raise ValueError("empty source mask")
    flux = np.where(mask, np.maximum(image, 0.0), 0.0)
    total = flux.sum()
    if total <= 0:
        raise ValueError("source has no positive flux")
    yy, xx = np.indices(image.shape, dtype=float)
    return float((flux * yy).sum() / total), float((flux * xx).sum() / total)


def galmorph_reference(
    image: ImageHDU,
    redshift: float,
    pix_scale: float,
    galaxy_id: str | None = None,
) -> MorphologyResult:
    """The seed per-galaxy pipeline: no geometry sharing, no caching."""
    gid = galaxy_id if galaxy_id is not None else str(image.header.get("OBJECT", "unknown"))
    if image.data is None:
        return MorphologyResult(gid, valid=False, error="image HDU carries no data")
    try:
        data = np.asarray(image.data, dtype=float)
        background = estimate_background(data)
        subtracted = data - background.level
        mask = central_source_mask(data, background)
        if not mask.any():
            return MorphologyResult(gid, valid=False, error="no significant central source")
        center = source_centroid_reference(subtracted, mask)
        r_p = petrosian_radius_reference(subtracted, center)
        measure_radius = min(1.5 * r_p, min(data.shape) / 2.0 - 1.0)
        if measure_radius <= 1.0:
            return MorphologyResult(gid, valid=False, error="source unresolved at this pixel scale")

        pixel_scale_arcsec = abs(pix_scale) * 3600.0
        mu = average_surface_brightness_reference(
            subtracted, center, measure_radius, pixel_scale_arcsec
        )
        c = concentration_index_reference(subtracted, center, measure_radius)
        a = asymmetry_index_reference(
            subtracted, center, measure_radius, background_sigma=background.sigma
        )

        cosmo = FlatLambdaCDM()
        r_p_arcsec = r_p * pixel_scale_arcsec
        r_p_kpc = (
            r_p_arcsec * cosmo.kpc_per_arcsec(max(redshift, 0.0)) if redshift > 0 else float("nan")
        )
        return MorphologyResult(
            galaxy_id=gid,
            valid=True,
            surface_brightness=mu,
            concentration=c,
            asymmetry=a,
            petrosian_radius_arcsec=r_p_arcsec,
            petrosian_radius_kpc=r_p_kpc,
        )
    except (ValueError, FloatingPointError) as exc:
        return MorphologyResult(gid, valid=False, error=str(exc))
