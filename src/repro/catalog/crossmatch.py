"""Positional cross-matching and local density estimation.

The portal "triggers the construction of a catalog of the galaxies in the
cluster ... by retrieving records from catalogs from two other data centers"
(§4.2) — merging those catalogs requires matching sources by position.  The
science model needs the *local density of galaxies* (Dressler 1980), which
we estimate with the classical Nth-nearest-neighbour projected density.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.catalog.coords import angular_separation_deg


def _unit_vectors(ra_deg: np.ndarray, dec_deg: np.ndarray) -> np.ndarray:
    """(N, 3) unit vectors on the sphere for KD-tree chord matching."""
    ra = np.deg2rad(np.asarray(ra_deg, dtype=float))
    dec = np.deg2rad(np.asarray(dec_deg, dtype=float))
    return np.column_stack(
        (np.cos(dec) * np.cos(ra), np.cos(dec) * np.sin(ra), np.sin(dec))
    )


def crossmatch_positions(
    ra1: np.ndarray,
    dec1: np.ndarray,
    ra2: np.ndarray,
    dec2: np.ndarray,
    tolerance_arcsec: float = 2.0,
) -> list[tuple[int, int]]:
    """Match catalog 1 sources to their nearest catalog 2 source.

    Returns ``(i1, i2)`` index pairs for every catalog-1 source whose
    nearest catalog-2 neighbour lies within ``tolerance_arcsec``.  Matching
    is nearest-neighbour via a KD-tree on unit vectors (chord distance), so
    it is exact on the sphere and O((N+M) log M).
    """
    ra1, dec1 = np.atleast_1d(ra1), np.atleast_1d(dec1)
    ra2, dec2 = np.atleast_1d(ra2), np.atleast_1d(dec2)
    if ra2.size == 0 or ra1.size == 0:
        return []
    tree = cKDTree(_unit_vectors(ra2, dec2))
    # chord length for an angle theta: 2 sin(theta/2)
    max_chord = 2.0 * np.sin(np.deg2rad(tolerance_arcsec / 3600.0) / 2.0)
    dists, idx = tree.query(_unit_vectors(ra1, dec1), k=1)
    pairs = [(int(i1), int(i2)) for i1, (d, i2) in enumerate(zip(dists, idx)) if d <= max_chord]
    return pairs


#: Dressler's choice: surface density out to the 10th nearest neighbour.
N_NEIGHBORS = 10


def local_density(
    ra: np.ndarray,
    dec: np.ndarray,
    n_neighbors: int = N_NEIGHBORS,
) -> np.ndarray:
    """Projected Nth-nearest-neighbour surface density, galaxies / deg^2.

    Dressler's Sigma_N estimator: ``Sigma = N / (pi * theta_N^2)`` where
    ``theta_N`` is the angular distance to the Nth nearest neighbour.  For
    samples smaller than ``n_neighbors + 1`` the farthest available
    neighbour is used instead, so the estimator degrades gracefully on the
    paper's smallest (37-galaxy) cluster.
    """
    ra = np.atleast_1d(np.asarray(ra, dtype=float))
    dec = np.atleast_1d(np.asarray(dec, dtype=float))
    n = ra.size
    if n < 2:
        return np.zeros(n)
    k = min(n_neighbors, n - 1)
    tree = cKDTree(_unit_vectors(ra, dec))
    # k+1 because the closest hit is the point itself.
    dists, _ = tree.query(_unit_vectors(ra, dec), k=k + 1)
    chord = dists[:, -1]
    theta_deg = np.rad2deg(2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0)))
    theta_deg = np.maximum(theta_deg, 1e-9)  # coincident positions
    return k / (np.pi * theta_deg**2)


def radial_separation_deg(
    center_ra: float, center_dec: float, ra: np.ndarray, dec: np.ndarray
) -> np.ndarray:
    """Cluster-centric angular radius of each galaxy, degrees."""
    return np.asarray(angular_separation_deg(center_ra, center_dec, ra, dec))
