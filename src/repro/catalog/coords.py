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


def cone_contains(
    center_ra: float,
    center_dec: float,
    radius_deg: float,
    ra: np.ndarray | float,
    dec: np.ndarray | float,
) -> np.ndarray:
    """Boolean mask: which (ra, dec) fall inside the given cone.

    This is the exact selection semantics of the Cone Search protocol
    (center + search radius ``SR``).
    """
    if radius_deg < 0:
        raise ValueError(f"cone radius must be non-negative: {radius_deg}")
    sep = angular_separation_deg(center_ra, center_dec, ra, dec)
    return np.asarray(sep <= radius_deg)
