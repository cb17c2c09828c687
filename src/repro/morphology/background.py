"""Sky background estimation.

Cutouts arrive with the sky level left in; every measurement first needs a
robust background estimate.  We use the classic sigma-clipped statistics of
the image border (the galaxy sits in the centre of a cutout by
construction, so the border is sky-dominated).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.morphology.geometry import border_mask

#: The border frame's depth in pixels, the clip threshold and the iteration
#: cap: shared by the scalar and stacked estimators (the reference kernel
#: calls the scalar one), whose <= 1e-9 parity needs them equal.
BORDER_WIDTH = 4
CLIP_SIGMA = 3.0
MAX_ITERATIONS = 5


@dataclass(frozen=True)
class BackgroundEstimate:
    """Robust sky level and per-pixel noise."""

    level: float
    sigma: float
    n_pixels: int


def _border_pixels(image: np.ndarray, width: int) -> np.ndarray:
    """Flattened border frame of the image, ``width`` pixels deep.

    The boolean frame mask depends only on (shape, width), so it comes out
    of the shared geometry cache instead of being rebuilt per cutout.
    """
    h, w = image.shape
    width = min(width, h // 2, w // 2)
    if width < 1:
        raise ValueError(f"image {image.shape} too small for a border estimate")
    return image[border_mask((h, w), width)]


def _range_median_std(
    s: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    rows: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row median/std of the sorted slice ``s[row, lo:hi]`` in O(N).

    ``s`` is the ``(N, B)`` row-sorted border values; ``p1``/``p2`` are
    exclusive prefix sums of ``s - s[:, :1]`` and its square.  The median
    is exactly ``np.median`` of the slice; the std uses the shifted-origin
    sum-of-squares identity, which matches ``np.std`` of the slice to a
    few ulps (the shift keeps the cancellation benign — deviations, not
    raw sky levels, get squared).
    """
    if rows is None:
        rows = np.arange(s.shape[0])
    n = hi - lo
    median = (s[rows, lo + (n - 1) // 2] + s[rows, lo + n // 2]) / 2.0
    mean_d = (p1[rows, hi] - p1[rows, lo]) / n
    var = (p2[rows, hi] - p2[rows, lo]) / n - mean_d * mean_d
    sigma = np.sqrt(np.maximum(var, 0.0))
    return median, sigma


def estimate_background_batch(stack: np.ndarray) -> list[BackgroundEstimate]:
    """Sigma-clipped border statistics for a whole ``(N, H, W)`` stack.

    The clip never re-admits a pixel, so in value-sorted order every
    row's kept set is a contiguous ``[lo, hi)`` range: one sort and one
    pair of prefix sums per row replace per-iteration sort/mask passes,
    and each iteration is a single vectorised threshold compare (the same
    ``|x - median| <= k*sigma`` predicate as the scalar path, evaluated on
    the same float values) plus O(N) bound updates.  Per-row break
    conditions (zero sigma, no pixel clipped, fewer than 8 survivors)
    mirror :func:`estimate_background` exactly; results match the scalar
    estimator to well within the 1e-9 parity contract (the median is
    exact; the std differs only in summation order).  All arithmetic is
    per-row, so chunked execution is bit-identical to whole-batch.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise ValueError(f"expected an (N, H, W) stack, got shape {stack.shape}")
    n_images, h, w = stack.shape
    width = min(BORDER_WIDTH, h // 2, w // 2)
    if width < 1:
        raise ValueError(f"image {(h, w)} too small for a border estimate")
    values = stack[:, border_mask((h, w), width)]
    s = np.sort(values, axis=1)
    d = s - s[:, :1]
    zero = np.zeros((n_images, 1))
    p1 = np.concatenate([zero, np.cumsum(d, axis=1)], axis=1)
    p2 = np.concatenate([zero, np.cumsum(d * d, axis=1)], axis=1)
    n_border = values.shape[1]
    lo = np.zeros(n_images, dtype=np.intp)
    hi = np.full(n_images, n_border, dtype=np.intp)
    active = np.ones(n_images, dtype=bool)
    rows = np.arange(n_images)
    dev = np.empty_like(s)
    inside = np.empty(s.shape, dtype=bool)
    level = np.empty(n_images)
    sigma_out = np.empty(n_images)
    for _ in range(MAX_ITERATIONS):
        if not active.any():
            break
        median, sigma = _range_median_std(s, p1, p2, lo, hi, rows)
        # A row that stops this iteration keeps exactly these statistics
        # (its kept range no longer changes), so the scalar path's final
        # median/std recompute is only needed for rows that clip on every
        # iteration.
        np.copyto(level, median, where=active)
        np.copyto(sigma_out, sigma, where=active)
        np.subtract(s, median[:, None], out=dev)
        np.abs(dev, out=dev)
        np.less_equal(dev, (CLIP_SIGMA * sigma)[:, None], out=inside)
        # the predicate is monotone along each sorted row, so the kept
        # pixels of the current range form the contiguous intersection
        first = np.argmax(inside, axis=1)
        new_lo = np.maximum(lo, first)
        new_hi = np.minimum(hi, first + inside.sum(axis=1))
        stop = (sigma == 0.0) | ((new_lo == lo) & (new_hi == hi)) | (new_hi - new_lo < 8)
        active &= ~stop
        np.copyto(lo, new_lo, where=active)
        np.copyto(hi, new_hi, where=active)
    if active.any():
        median, sigma = _range_median_std(s, p1, p2, lo, hi, rows)
        np.copyto(level, median, where=active)
        np.copyto(sigma_out, sigma, where=active)
    n_pixels = hi - lo
    return [
        BackgroundEstimate(
            level=float(level[i]), sigma=float(sigma_out[i]), n_pixels=int(n_pixels[i])
        )
        for i in range(n_images)
    ]


def estimate_background(image: np.ndarray) -> BackgroundEstimate:
    """Sigma-clipped median/std of the cutout border.

    Iteratively rejects pixels more than :data:`CLIP_SIGMA` standard deviations
    from the median — outliers here are neighbouring sources or galaxy
    light leaking into the frame.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ValueError(f"expected a 2-D image, got shape {image.shape}")
    values = _border_pixels(image, BORDER_WIDTH)
    for _ in range(MAX_ITERATIONS):
        median = np.median(values)
        sigma = np.std(values)
        if sigma == 0:
            break
        keep = np.abs(values - median) <= CLIP_SIGMA * sigma
        if keep.all():
            break
        if keep.sum() < 8:
            break  # refuse to clip the sample away entirely
        values = values[keep]
    return BackgroundEstimate(
        level=float(np.median(values)),
        sigma=float(np.std(values)),
        n_pixels=int(values.size),
    )
