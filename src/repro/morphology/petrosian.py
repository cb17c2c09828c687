"""Petrosian radius: the aperture scale used by Conselice-style indices.

The Petrosian radius r_p(eta) is where the local surface brightness drops
to ``eta`` times the mean surface brightness interior to that radius
(eta = 0.2 is the SDSS/Conselice convention).  Total-flux apertures are
then defined as multiples of r_p, making the measurements robust to depth.

Both entry points share one radial-binning pass: the per-pixel bin index
and per-bin pixel counts depend only on (shape, centre, bin width), so
they live in the :class:`~repro.morphology.geometry.CutoutGeometry` cache
and each call does a single flux ``bincount``.  The seed implementation
ran the full ``np.indices``/``np.hypot``/double-``bincount`` pipeline
twice per ``petrosian_radius`` call.
"""

from __future__ import annotations

import numpy as np

from repro.morphology.geometry import CutoutGeometry
from repro.morphology.measures import _geometry_for

#: Where the Petrosian ratio is read (the SDSS/Conselice convention) and the
#: radial bin width in pixels: shared by the scalar, stacked and reference
#: kernels, whose <= 1e-9 parity needs them equal.
ETA = 0.2
BIN_WIDTH = 1.0


def _binned_profile(
    image: np.ndarray,
    center: tuple[float, float],
    geometry: CutoutGeometry | None,
    max_radius: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One radial-binning pass: ``(bin centre radii, flux sums, counts)``."""
    image = np.asarray(image)
    geom = _geometry_for(image, geometry)
    flat_idx, nbins, counts = geom.radial_bin_index(center, BIN_WIDTH, max_radius)
    sums = np.bincount(flat_idx, weights=image.ravel(), minlength=nbins + 1)[:nbins]
    radii = (np.arange(nbins) + 0.5) * BIN_WIDTH
    return radii, sums, counts


#: Sentinel errors a batched Petrosian row can carry (indices into the
#: status array returned by :func:`petrosian_radius_batch`).
PETROSIAN_OK = 0
PETROSIAN_TOO_SMALL = 1
PETROSIAN_NO_CROSSING = 2

PETROSIAN_ERRORS = {
    PETROSIAN_TOO_SMALL: "image too small for a Petrosian profile",
    PETROSIAN_NO_CROSSING: "Petrosian ratio never falls below eta inside the frame",
}


def petrosian_radius_batch(
    images: np.ndarray, radius_maps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Petrosian radii for a whole same-shape stack in one binning pass.

    ``radius_maps`` are the per-centroid ``(N, H, W)`` maps (centres are
    per-galaxy, so the bins cannot come from the shared geometry cache —
    but one offset-``bincount`` over the whole stack replaces 2N binning
    passes).  Each row's bin layout, local/interior profiles, crossing
    search and sub-bin interpolation reproduce :func:`petrosian_radius`'s
    arithmetic exactly; rows are fully independent, so chunked execution
    is bit-identical to whole-batch execution.

    Returns ``(r_p, status)`` where ``status`` holds
    :data:`PETROSIAN_OK` / :data:`PETROSIAN_TOO_SMALL` /
    :data:`PETROSIAN_NO_CROSSING` per row (the scalar path raises
    ``ValueError`` for the latter two).
    """
    eta, bin_width = ETA, BIN_WIDTH
    images = np.asarray(images, dtype=float)
    n_images = images.shape[0]
    flat_r = radius_maps.reshape(n_images, -1)
    max_radii = flat_r.max(axis=1)
    nbins = np.maximum(np.ceil(max_radii / bin_width).astype(int), 1)
    status = np.where(nbins < 3, PETROSIAN_TOO_SMALL, PETROSIAN_OK)

    nb_max = int(nbins.max())
    stride = nb_max + 1
    scaled = flat_r if bin_width == 1.0 else flat_r / bin_width
    idx = np.minimum(scaled.astype(int), nbins[:, None])
    offset_idx = (idx + np.arange(n_images)[:, None] * stride).ravel()
    counts = np.bincount(offset_idx, minlength=n_images * stride)
    sums = np.bincount(offset_idx, weights=images.ravel(), minlength=n_images * stride)
    counts = counts.reshape(n_images, stride)[:, :nb_max]
    sums = sums.reshape(n_images, stride)[:, :nb_max]

    # Columns at or beyond each row's own bin count are padding: mask them
    # out of the profile so the crossing search never sees them.
    cols = np.arange(nb_max)[None, :]
    padding = cols >= nbins[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_local = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        cum_flux = np.cumsum(sums, axis=1)
        cum_area = np.cumsum(counts, axis=1)
        mu_mean = np.where(cum_area > 0, cum_flux / np.maximum(cum_area, 1), 0.0)
        valid = mu_mean > 0
        ratio = np.where(valid, mu_local / np.where(valid, mu_mean, 1.0), np.inf)
    ratio = np.where(padding, np.inf, ratio)

    below = ratio[:, 1:] < eta
    crossed = below.any(axis=1)
    status = np.where((status == PETROSIAN_OK) & ~crossed, PETROSIAN_NO_CROSSING, status)
    first = np.argmax(below, axis=1) + 1

    rows = np.arange(n_images)
    r1 = (first + 0.5) * bin_width
    r0 = (first - 0.5) * bin_width
    f0 = ratio[rows, first - 1]
    f1 = ratio[rows, first]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip((eta - f0) / np.where(f1 != f0, f1 - f0, 1.0), 0.0, 1.0)
    r_p = np.where(np.isfinite(f0) & (f1 != f0), r0 + t * (r1 - r0), r1)
    r_p = np.where(status == PETROSIAN_OK, r_p, np.nan)
    return r_p, status


def petrosian_radius(
    image: np.ndarray,
    center: tuple[float, float],
    eta: float = ETA,
    geometry: CutoutGeometry | None = None,
) -> float:
    """Radius where local surface brightness = eta * mean interior brightness.

    ``image`` must be background-subtracted.  Raises ``ValueError`` when the
    ratio never crosses ``eta`` inside the frame (truncated or empty source),
    which callers convert into an invalid-measurement flag.

    The local profile and the cumulative interior means come out of the same
    fused binning pass — one flux ``bincount`` per call.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must be in (0, 1): {eta}")
    radii, sums, counts = _binned_profile(image, center, geometry)
    if radii.size < 3:
        raise ValueError("image too small for a Petrosian profile")
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_local = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)

    # cumulative mean surface brightness interior to each radius, from the
    # same per-bin sums (the seed recomputed the whole binning here)
    cum_flux = np.cumsum(sums)
    cum_area = np.cumsum(counts)
    with np.errstate(invalid="ignore", divide="ignore"):
        mu_mean = np.where(cum_area > 0, cum_flux / np.maximum(cum_area, 1), 0.0)

    valid = mu_mean > 0
    ratio = np.where(valid, mu_local / np.where(valid, mu_mean, 1.0), np.inf)
    # Find the first crossing below eta beyond the innermost bin.
    below = np.nonzero((ratio[1:] < eta))[0]
    if below.size == 0:
        raise ValueError("Petrosian ratio never falls below eta inside the frame")
    i = int(below[0]) + 1
    # Linear interpolation between bins i-1 and i for sub-bin precision.
    r0, r1 = radii[i - 1], radii[i]
    f0, f1 = ratio[i - 1], ratio[i]
    if not np.isfinite(f0) or f1 == f0:
        return float(r1)
    t = (eta - f0) / (f1 - f0)
    return float(r0 + np.clip(t, 0.0, 1.0) * (r1 - r0))
