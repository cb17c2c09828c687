"""Positional cross-matching of two catalogs.

The portal "triggers the construction of a catalog of the galaxies in the
cluster ... by retrieving records from catalogs from two other data centers"
(§4.2) — merging those catalogs requires matching sources by position.
"""

from __future__ import annotations

import numpy as np

from repro.catalog.coords import BAND_SLACK_DEG, angular_separation_deg


def crossmatch_positions(
    ra1: np.ndarray,
    dec1: np.ndarray,
    ra2: np.ndarray,
    dec2: np.ndarray,
    tolerance_arcsec: float = 2.0,
) -> list[tuple[int, int]]:
    """Match catalog 1 sources to their nearest catalog 2 source.

    Returns ``(i1, i2)`` index pairs, in ``i1`` order, for every catalog-1
    source with a catalog-2 source within ``tolerance_arcsec``; ``i2`` is
    the nearest such source by great-circle separation, the lowest index on
    a tie.  Catalog 2 is sorted by Dec once and each source is compared only
    with the Dec band it can reach (the :class:`~repro.catalog.coords.ConeIndex`
    argument: a separation is never smaller than the difference in Dec), so
    the cost is a binary search per source plus its band.
    """
    ra1, dec1, ra2, dec2 = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (ra1, dec1, ra2, dec2))
    if ra2.size == 0 or ra1.size == 0:
        return []
    tolerance_deg = tolerance_arcsec / 3600.0
    order = np.argsort(dec2, kind="stable")
    sorted_dec2 = dec2[order]
    reach = tolerance_deg + BAND_SLACK_DEG
    lo = np.searchsorted(sorted_dec2, dec1 - reach, side="left")
    hi = np.searchsorted(sorted_dec2, dec1 + reach, side="right")
    # every (source, band member) candidate pair, flattened
    width = hi - lo
    q = np.repeat(np.arange(ra1.size), width)
    offset = np.arange(q.size) - np.repeat(np.cumsum(width) - width, width)
    cand = order[lo[q] + offset]
    sep = angular_separation_deg(ra1[q], dec1[q], ra2[cand], dec2[cand])
    hit = sep <= tolerance_deg
    q, cand, sep = q[hit], cand[hit], sep[hit]
    # per source: nearest first, lowest catalog-2 index on a tie
    best = np.lexsort((cand, sep, q))
    q, cand = q[best], cand[best]
    first = np.ones(q.size, dtype=bool)
    first[1:] = q[1:] != q[:-1]
    return list(zip(q[first].tolist(), cand[first].tolist()))


def radial_separation_deg(
    center_ra: float, center_dec: float, ra: np.ndarray, dec: np.ndarray
) -> np.ndarray:
    """Cluster-centric angular radius of each galaxy, degrees."""
    return np.asarray(angular_separation_deg(center_ra, center_dec, ra, dec))
