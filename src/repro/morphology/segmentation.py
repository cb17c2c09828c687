"""Source segmentation: isolate the central galaxy's pixels.

Thresholding at ``background + k sigma`` followed by connected-component
labelling (:func:`scipy.ndimage.label`); the component containing (or
nearest to) the image centre is the target galaxy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy import ndimage

from repro.morphology.background import BackgroundEstimate, estimate_background
from repro.morphology.geometry import CutoutGeometry, index_grids

#: Detection threshold in background sigmas, and the smallest component
#: that counts as a source: shared by the scalar and stacked masks (the
#: reference kernel calls the scalar one).
THRESHOLD_SIGMA = 1.5
MIN_PIXELS = 5


def central_source_mask(
    image: np.ndarray,
    background: BackgroundEstimate | None = None,
    threshold_sigma: float = THRESHOLD_SIGMA,
) -> np.ndarray:
    """Boolean mask of the connected source covering the cutout centre.

    Returns an all-False mask when no significant source exists (the
    "bad quality image" failure mode of §4.3.1(4), which callers must
    translate into an invalid-row flag rather than a crash).
    """
    image = np.asarray(image, dtype=float)
    if background is None:
        background = estimate_background(image)
    threshold = background.level + threshold_sigma * max(background.sigma, 1e-12)
    significant = image > threshold
    labels, n_labels = ndimage.label(significant)
    if n_labels == 0:
        return np.zeros(image.shape, dtype=bool)

    cy, cx = (image.shape[0] - 1) / 2.0, (image.shape[1] - 1) / 2.0
    center_label = int(labels[int(round(cy)), int(round(cx))])
    sizes = np.bincount(labels.ravel(), minlength=n_labels + 1)
    if center_label == 0 or sizes[center_label] < MIN_PIXELS:
        # Centre pixel below threshold (or on a noise speck): take the
        # closest component centroid among real (>= MIN_PIXELS) components.
        candidates = [lab for lab in range(1, n_labels + 1) if sizes[lab] >= MIN_PIXELS]
        if not candidates:
            return np.zeros(image.shape, dtype=bool)
        centroids = ndimage.center_of_mass(significant, labels, candidates)
        dists = [np.hypot(y - cy, x - cx) for y, x in centroids]
        center_label = candidates[int(np.argmin(dists))]

    mask = labels == center_label
    if mask.sum() < MIN_PIXELS:
        return np.zeros(image.shape, dtype=bool)
    return mask


#: 3-D labelling structure with zero connectivity across the batch axis:
#: one ``ndimage.label`` call labels every slice of an (N, H, W) stack
#: independently, with the same 4-connectivity the 2-D default uses.
_BATCH_STRUCTURE = np.zeros((3, 3, 3), dtype=bool)
_BATCH_STRUCTURE[1] = [[False, True, False], [True, True, True], [False, True, False]]


def central_source_mask_batch(
    stack: np.ndarray,
    backgrounds: Sequence[BackgroundEstimate],
) -> np.ndarray:
    """Central-source masks for a whole ``(N, H, W)`` stack in one pass.

    The stack is thresholded and labelled with a single 3-D
    ``ndimage.label`` whose structure carries no connectivity across the
    batch axis, so every slice is labelled independently (with global
    numbering) by one C pass instead of N calls.  Rows whose centre pixel
    lands on a real (>= :data:`MIN_PIXELS`) component — the overwhelmingly
    common case for centred cutouts — are resolved by a vectorised label
    comparison; the rare off-centre/speck rows fall back to the scalar
    :func:`central_source_mask` for bit-identical nearest-centroid
    semantics.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError(f"expected an (N, H, W) stack, got shape {stack.shape}")
    n_images, h, w = stack.shape
    thresholds = np.array(
        [bg.level + THRESHOLD_SIGMA * max(bg.sigma, 1e-12) for bg in backgrounds]
    )
    significant = stack > thresholds[:, None, None]
    labels, _ = ndimage.label(significant, structure=_BATCH_STRUCTURE)
    cyi, cxi = int(round((h - 1) / 2.0)), int(round((w - 1) / 2.0))
    center_labels = labels[:, cyi, cxi]
    sizes = np.bincount(labels.ravel())
    easy = (center_labels > 0) & (sizes[center_labels] >= MIN_PIXELS)
    masks = (labels == center_labels[:, None, None]) & easy[:, None, None]
    for i in np.nonzero(~easy)[0]:
        masks[i] = central_source_mask(stack[i], backgrounds[i])
    return masks


def source_centroid_batch(
    images: np.ndarray,
    masks: np.ndarray,
    geometry: CutoutGeometry,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flux-weighted centroids of N masked sources in one pass.

    Returns ``(centers_y, centers_x, totals)``; rows with no positive
    masked flux carry ``totals[i] <= 0`` (the caller converts those to
    invalid rows, mirroring :func:`source_centroid`'s ``ValueError``).
    Rows with an empty mask also land there.
    """
    flux = np.where(masks, np.maximum(images, 0.0), 0.0)
    totals = flux.sum(axis=(1, 2))
    safe = np.where(totals > 0, totals, 1.0)
    centers_y = (flux * geometry.yy).sum(axis=(1, 2)) / safe
    centers_x = (flux * geometry.xx).sum(axis=(1, 2)) / safe
    return centers_y, centers_x, totals


def source_centroid(
    image: np.ndarray,
    mask: np.ndarray,
    geometry: CutoutGeometry | None = None,
) -> tuple[float, float]:
    """Flux-weighted centroid (y, x) of the masked source, background-free
    flux assumed already subtracted by the caller."""
    if not mask.any():
        raise ValueError("empty source mask")
    flux = np.where(mask, np.maximum(image, 0.0), 0.0)
    total = flux.sum()
    if total <= 0:
        raise ValueError("source has no positive flux")
    if geometry is not None and geometry.shape == tuple(image.shape):
        yy, xx = geometry.yy, geometry.xx
    else:
        yy, xx = index_grids(tuple(image.shape))
    return float((flux * yy).sum() / total), float((flux * xx).sum() / total)
