"""Spherical sky geometry, vectorised over numpy arrays.

Angles are degrees throughout (the unit of the Cone Search and SIA
protocols).  Separations use the Vincenty formula, which is numerically
stable at all angular scales — important because cluster work mixes
arcsecond-scale (galaxy matching) with degree-scale (field queries)
separations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SkyPosition:
    """An (RA, Dec) point on the celestial sphere, degrees."""

    ra: float
    dec: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.dec <= 90.0:
            raise ValueError(f"Dec out of range [-90, 90]: {self.dec}")
        object.__setattr__(self, "ra", float(self.ra) % 360.0)
        object.__setattr__(self, "dec", float(self.dec))

    def separation_deg(self, other: "SkyPosition") -> float:
        return float(angular_separation_deg(self.ra, self.dec, other.ra, other.dec))

    def offset(self, dra_deg: float, ddec_deg: float) -> "SkyPosition":
        """Small-angle offset: shift by ``dra`` along RA (true angle, i.e.
        divided by cos Dec) and ``ddec`` along Dec."""
        dec = self.dec + ddec_deg
        dec = min(90.0, max(-90.0, dec))
        cosd = np.cos(np.deg2rad(self.dec))
        ra = self.ra + (dra_deg / cosd if cosd > 1e-12 else 0.0)
        return SkyPosition(ra, dec)


def angular_separation_deg(
    ra1: np.ndarray | float,
    dec1: np.ndarray | float,
    ra2: np.ndarray | float,
    dec2: np.ndarray | float,
) -> np.ndarray:
    """Great-circle separation in degrees (Vincenty; broadcastable)."""
    lam1, phi1, lam2, phi2 = (np.deg2rad(np.asarray(a, dtype=float)) for a in (ra1, dec1, ra2, dec2))
    dlam = lam2 - lam1
    num = np.hypot(
        np.cos(phi2) * np.sin(dlam),
        np.cos(phi1) * np.sin(phi2) - np.sin(phi1) * np.cos(phi2) * np.cos(dlam),
    )
    den = np.sin(phi1) * np.sin(phi2) + np.cos(phi1) * np.cos(phi2) * np.cos(dlam)
    return np.rad2deg(np.arctan2(num, den))


#: Widening of the Dec band, far above the rounding error of a separation.
BAND_SLACK_DEG = 1e-9


class ConeIndex:
    """Fixed sky positions sorted by Dec once, for repeated cone queries.

    The selection is the Cone Search protocol's (centre + search radius
    ``SR``, exact great-circle separation).  ``query`` selects exactly what
    a full scan
    ``angular_separation_deg(ra, dec, ras, decs) <= radius + pad`` selects,
    but evaluates the separation only inside the Dec band the cone can
    reach: a great-circle separation is never smaller than the difference
    in Dec, so the band (widened by a rounding slack) drops no hit.  Cost
    is a binary search plus the band, not the whole sky.

    ``pad`` is a per-position radius added to every query's radius (an
    image archive matches a tile by its centre plus its own span).  The
    object is immutable after construction, so threads may share it.
    """

    def __init__(
        self,
        ra: np.ndarray | list[float],
        dec: np.ndarray | list[float],
        pad: np.ndarray | list[float] | float = 0.0,
    ) -> None:
        dec = np.asarray(dec, dtype=float)
        pad = np.broadcast_to(np.asarray(pad, dtype=float), dec.shape)
        self._order = np.argsort(dec, kind="stable")
        self._ra = np.asarray(ra, dtype=float)[self._order]
        self._dec = dec[self._order]
        self._pad = pad[self._order]
        self._reach = float(pad.max(initial=0.0)) + BAND_SLACK_DEG

    def query(self, ra: float, dec: float, radius_deg: float) -> list[int]:
        """Insertion-order indices of the positions inside the cone."""
        if not radius_deg >= 0:
            raise ValueError(f"cone radius must be non-negative: {radius_deg}")
        reach = radius_deg + self._reach
        lo = int(np.searchsorted(self._dec, dec - reach, side="left"))
        hi = int(np.searchsorted(self._dec, dec + reach, side="right"))
        sep = angular_separation_deg(ra, dec, self._ra[lo:hi], self._dec[lo:hi])
        hits = self._order[lo:hi][sep <= radius_deg + self._pad[lo:hi]]
        return np.sort(hits).tolist()
