"""Source segmentation: isolate the central galaxy's pixels.

Thresholding at ``background + k sigma`` followed by 4-connected component
labelling; the component containing (or nearest to) the image centre is the
target galaxy.

The labelling works on row runs, the maximal horizontal stretches of
significant pixels: runs in adjacent rows touch when their column ranges
overlap, which is exactly 4-connectivity.  Components are found by
union-find over the touching pairs, vectorised in numpy, and each is named
by its first run in raster order, which is how ``scipy.ndimage.label``
numbers them.  Components, label order and centroids are therefore
scipy's, and so is the mask, while a served process needs only numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.morphology.background import BackgroundEstimate, estimate_background
from repro.morphology.geometry import CutoutGeometry, index_grids

#: Detection threshold in background sigmas, and the smallest component
#: that counts as a source: shared by the scalar and stacked masks (the
#: reference kernel calls the scalar one).
THRESHOLD_SIGMA = 1.5
MIN_PIXELS = 5


def _row_runs(significant: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The row runs of a 2-D boolean image, in raster order.

    Returns ``(starts, ends, stride)``: run ``i`` covers flat positions
    ``starts[i] .. ends[i] - 1`` of the image laid out with ``stride =
    width + 1`` columns per row.  With the one spare column, a position
    plus ``stride`` is the same column one row down, and the starts and
    ends of all rows sort together.
    """
    h, w = significant.shape
    framed = np.zeros((h, w + 2), dtype=bool)
    framed[:, 1:-1] = significant
    edges = np.flatnonzero(framed[:, 1:] != framed[:, :-1])
    return edges[0::2], edges[1::2], w + 1


def _components(starts: np.ndarray, ends: np.ndarray, stride: int) -> np.ndarray:
    """Each run's component, named by its smallest run index.

    The runs one row below run ``[s, e)`` that share a column with it end
    after ``s + stride`` and start before ``e + stride``: one slice of the
    raster order, bounded by two bisections.  Union-find over those pairs
    hooks the larger of two roots under the smaller and then compresses
    every path, until no pair spans two roots; the smallest run of a
    component is never hooked, so it is the root left.
    """
    n = starts.size
    lo = np.searchsorted(ends, starts + stride, side="right")
    counts = np.searchsorted(starts, ends + stride, side="left") - lo
    upper = np.repeat(np.arange(n), counts)
    lower = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(upper.size)
    root = np.arange(n)
    while True:
        a, b = root[upper], root[lower]
        if np.array_equal(a, b):
            return root
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root, grand := root[root]):
            root = grand


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
    starts, ends, stride = _row_runs(significant)
    root = _components(starts, ends, stride)
    lengths = ends - starts
    sizes = np.bincount(root, weights=lengths, minlength=root.size)

    cy, cx = (image.shape[0] - 1) / 2.0, (image.shape[1] - 1) / 2.0
    cyi, cxi = int(round(cy)), int(round(cx))
    center = -1
    if significant[cyi, cxi]:
        center = int(root[np.searchsorted(starts, cyi * stride + cxi, side="right") - 1])
    if center < 0 or sizes[center] < MIN_PIXELS:
        # Centre pixel below threshold (or on a noise speck): take the
        # closest component centroid among real (>= MIN_PIXELS) components,
        # the first in label order on a tie.  The coordinate sums are exact
        # integers, as ``center_of_mass``'s float sums of them are, so each
        # centroid is the same single rounded division.
        labels = np.flatnonzero((root == np.arange(root.size)) & (sizes >= MIN_PIXELS))
        if labels.size == 0:
            return np.zeros(image.shape, dtype=bool)
        rows = starts // stride
        columns = starts - rows * stride
        sum_y = np.bincount(root, weights=rows * lengths, minlength=root.size)
        sum_x = np.bincount(root, weights=(2 * columns + lengths - 1) * lengths // 2, minlength=root.size)
        dists = np.hypot(sum_y[labels] / sizes[labels] - cy, sum_x[labels] / sizes[labels] - cx)
        center = int(labels[np.argmin(dists)])

    # A flag at each chosen run's start and end; a running XOR fills between.
    flags = np.zeros(image.shape[0] * stride, dtype=bool)
    members = root == center
    flags[starts[members]] = True
    flags[ends[members]] = True
    inside = np.logical_xor.accumulate(flags).reshape(image.shape[0], stride)
    return np.ascontiguousarray(inside[:, : image.shape[1]])


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
    from scipy import ndimage  # the stacked family runs in-process only, never served

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
