"""Gaussian seeing in numpy, byte for byte what ``scipy.ndimage`` gives.

:func:`gaussian_blur` is ``scipy.ndimage.gaussian_filter(image, sigma,
mode="constant")`` for a 2-D float image, rebuilt operation for operation so
that no cutout pixel moves and a server need not import scipy:

* the weights are scipy's ``_gaussian_kernel1d``: ``exp(-0.5 / sigma**2 *
  x**2)`` over ``x = -radius..radius``, divided by its own sum, with
  ``radius = int(4 sigma + 0.5)``;
* axis 0 is filtered first, then axis 1, each into float64;
* each output is scipy's symmetric ``correlate1d`` loop: ``x[i] * w[0]``,
  then ``+= (x[i - j] + x[i + j]) * w[j]`` for ``j`` from the radius down
  to 1, reading zeros beyond the edge.

Each step is one correctly rounded IEEE operation in the same order as
scipy's C loop, so the sums agree to the last bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: Kernel half-width in standard deviations (scipy's ``truncate``).
TRUNCATE = 4.0


@lru_cache(maxsize=8)
def _half_weights(sigma: float) -> np.ndarray:
    """``w[0..radius]`` of the normalised kernel; read-only, shared."""
    radius = int(TRUNCATE * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    phi = phi / phi.sum()
    half = phi[radius:].copy()
    half.flags.writeable = False
    return half


def _filter_rows(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One symmetric pass of ``weights`` down axis 0, zeros beyond the edge.

    Every term is a whole contiguous slab of rows, so the pass over axis 1
    runs on the transpose (one copy each way) instead of strided columns.
    """
    radius = weights.size - 1
    n = image.shape[0]
    padded = np.zeros((n + 2 * radius, image.shape[1]))
    padded[radius : radius + n] = image
    out = padded[radius : radius + n] * weights[0]
    term = np.empty_like(out)
    for j in range(radius, 0, -1):
        np.add(padded[radius - j : radius - j + n], padded[radius + j : radius + j + n], out=term)
        term *= weights[j]
        out += term
    return out


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """``image`` seen through a Gaussian of ``sigma`` pixels (float64)."""
    weights = _half_weights(float(sigma))
    rows = _filter_rows(np.asarray(image, dtype=float), weights)
    return _filter_rows(rows.T, weights).T.copy()
