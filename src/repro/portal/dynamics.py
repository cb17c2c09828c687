"""Cluster dynamics: the science goal behind the morphology measurements.

§2: "Our goal is to investigate the dynamical state of galaxy clusters ...
The hypothesis is that recent falling of matter into the cluster, be it in
the form of single galaxies or cluster mass groupings, will show the
effects of the merging into the main cluster mass."

The portal's merged catalog carries line-of-sight velocities (from the
CNOC-like redshift service); this module derives the dynamical quantities
a cluster astronomer would compute from them:

* robust velocity dispersion (the *gapper* estimator of Beers, Flynn &
  Gebhardt 1990 — standard for the paper's 37-galaxy regime);
* the **Dressler & Shectman (1988) substructure test**: per-galaxy local
  kinematic deviations delta_i, the cumulative Delta statistic, and its
  significance calibrated by velocity shuffling — Dressler's own tool for
  "large scale events in the history of the galaxy cluster".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.portal.analysis import sky_neighbors
from repro.sky.cluster import ClusterModel
from repro.utils.rng import DEMO_SEED, derive_rng
from repro.votable.model import VOTable


def gapper_dispersion(velocities: np.ndarray) -> float:
    """The gapper velocity-dispersion estimator, km/s.

    ``sigma = sqrt(pi)/(n(n-1)) * sum_i i (n-i) g_i`` over the ordered
    velocity gaps ``g_i`` — unbiased and outlier-resistant for small
    samples, unlike the plain standard deviation.
    """
    v = np.sort(np.asarray(velocities, dtype=float))
    n = v.size
    if n < 2:
        raise ValueError(f"need at least two velocities, got {n}")
    gaps = np.diff(v)
    i = np.arange(1, n)
    weights = i * (n - i)
    return float(np.sqrt(np.pi) / (n * (n - 1)) * np.sum(weights * gaps))


def biweight_location(values: np.ndarray) -> float:
    """Tukey's biweight estimate of the central velocity (robust mean),
    with the customary tuning constant of 6 MADs."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty sample")
    median = np.median(values)
    mad = np.median(np.abs(values - median))
    if mad == 0:
        return float(median)
    u = (values - median) / (6.0 * mad)
    mask = np.abs(u) < 1.0
    num = np.sum((values[mask] - median) * (1 - u[mask] ** 2) ** 2)
    den = np.sum((1 - u[mask] ** 2) ** 2)
    return float(median + num / den) if den > 0 else float(median)


@dataclass(frozen=True)
class DresslerShectmanResult:
    """Outcome of the DS substructure test."""

    delta: tuple[float, ...]  # per-galaxy deviation delta_i
    big_delta: float  # sum of delta_i
    n_galaxies: int
    n_neighbors: int
    p_value: float  # shuffle-calibrated P(Delta_shuffled >= Delta)
    n_shuffles: int

    @property
    def has_substructure(self) -> bool:
        """Conventional threshold: significant at the 5% level."""
        return self.p_value < 0.05

    def summary(self) -> str:
        verdict = "substructure detected" if self.has_substructure else "relaxed"
        return (
            f"DS test: Delta={self.big_delta:.1f} over {self.n_galaxies} galaxies "
            f"(Delta/N={self.big_delta / self.n_galaxies:.2f}), "
            f"p={self.p_value:.3f} ({self.n_shuffles} shuffles) -> {verdict}"
        )


def _ds_delta(
    ra: np.ndarray,
    dec: np.ndarray,
    velocity: np.ndarray,
    n_neighbors: int,
) -> np.ndarray:
    """Per-galaxy DS deviations for one velocity configuration."""
    n = ra.size
    v_mean = biweight_location(velocity)
    sigma = gapper_dispersion(velocity)
    if sigma <= 0:
        raise ValueError("zero global velocity dispersion")
    # each galaxy + its n nearest neighbours
    _, idx = sky_neighbors(ra, dec, n_neighbors + 1)
    local_v = velocity[idx]  # (n, k+1)
    local_mean = local_v.mean(axis=1)
    local_sigma = local_v.std(axis=1, ddof=1)
    delta_sq = ((n_neighbors + 1) / sigma**2) * (
        (local_mean - v_mean) ** 2 + (local_sigma - sigma) ** 2
    )
    return np.sqrt(delta_sq)


def dressler_shectman_test(
    ra: np.ndarray,
    dec: np.ndarray,
    velocity: np.ndarray,
    n_neighbors: int | None = None,
    n_shuffles: int = 500,
    seed: int = DEMO_SEED,
) -> DresslerShectmanResult:
    """Run the DS test on positions + line-of-sight velocities.

    ``n_neighbors`` defaults to the classical sqrt(N).  Significance is
    calibrated by shuffling velocities over the fixed positions, which
    destroys position-velocity correlation while preserving both marginal
    distributions.
    """
    ra = np.asarray(ra, dtype=float)
    dec = np.asarray(dec, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    n = ra.size
    if not (n == dec.size == velocity.size):
        raise ValueError("ra, dec and velocity must have equal length")
    if n < 10:
        raise ValueError(f"DS test needs at least 10 galaxies, got {n}")
    k = n_neighbors if n_neighbors is not None else max(int(round(np.sqrt(n))), 3)
    if k >= n:
        raise ValueError(f"n_neighbors={k} must be smaller than the sample ({n})")

    delta = _ds_delta(ra, dec, velocity, k)
    big_delta = float(delta.sum())

    rng = derive_rng(seed, "ds-test")
    exceed = 0
    shuffled = velocity.copy()
    for _ in range(n_shuffles):
        rng.shuffle(shuffled)
        if float(_ds_delta(ra, dec, shuffled, k).sum()) >= big_delta:
            exceed += 1
    p_value = (exceed + 1) / (n_shuffles + 1)

    return DresslerShectmanResult(
        delta=tuple(float(d) for d in delta),
        big_delta=big_delta,
        n_galaxies=n,
        n_neighbors=k,
        p_value=float(p_value),
        n_shuffles=n_shuffles,
    )


@dataclass(frozen=True)
class DynamicalState:
    """The dynamical summary of one cluster from the merged catalog."""

    cluster: str
    n_members: int
    velocity_dispersion_kms: float
    mean_velocity_kms: float
    ds: DresslerShectmanResult

    def summary(self) -> str:
        return (
            f"Cluster {self.cluster}: N={self.n_members}, "
            f"sigma_v={self.velocity_dispersion_kms:.0f} km/s "
            f"(biweight centre {self.mean_velocity_kms:+.0f} km/s)\n  "
            + self.ds.summary()
        )


def analyze_dynamics(
    merged: VOTable,
    cluster: ClusterModel,
    n_shuffles: int = 500,
) -> DynamicalState:
    """Dynamical state from a portal catalog with ra/dec/velocity columns."""
    required = {"ra", "dec", "velocity"}
    missing = required - set(merged.field_names())
    if missing:
        raise ValueError(f"catalog lacks columns {sorted(missing)}")
    rows = [r for r in merged if r["velocity"] is not None]
    ra = np.array([r["ra"] for r in rows])
    dec = np.array([r["dec"] for r in rows])
    velocity = np.array([r["velocity"] for r in rows])
    return DynamicalState(
        cluster=cluster.name,
        n_members=len(rows),
        velocity_dispersion_kms=gapper_dispersion(velocity),
        mean_velocity_kms=biweight_location(velocity),
        ds=dressler_shectman_test(ra, dec, velocity, n_shuffles=n_shuffles),
    )
