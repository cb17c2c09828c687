"""Flat FRW cosmology: the (Ho, om, flat) parameter set of the paper's VDL.

The ``galMorph`` derivation of §3.2 carries ``Ho="100", om="0.3", flat="1"``
per galaxy, plus the redshift and pixel scale — exactly the inputs needed to
convert an angular pixel scale into a physical one.  This module provides
that conversion from first principles (comoving distance integral via
Simpson's rule; no astropy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Speed of light, km/s.
C_KM_S = 299_792.458

#: The cosmology every galMorph derivation carries (§3.2): the one declared
#: default of ``Ho`` / ``om`` for the VDL stylesheet and all three kernels.
H0 = 100.0
OMEGA_M = 0.3


@dataclass(frozen=True)
class FlatLambdaCDM:
    """Spatially flat Lambda-CDM cosmology.

    Parameters
    ----------
    h0:
        Hubble constant in km/s/Mpc (the paper uses 100, i.e. distances in
        units of h^-1 Mpc).
    omega_m:
        Matter density parameter; dark energy fills the rest (flat).
    """

    h0: float = H0
    omega_m: float = OMEGA_M

    def __post_init__(self) -> None:
        if self.h0 <= 0:
            raise ValueError(f"H0 must be positive: {self.h0}")
        if not 0.0 < self.omega_m <= 1.0:
            raise ValueError(f"Omega_m must be in (0, 1]: {self.omega_m}")

    @property
    def omega_lambda(self) -> float:
        return 1.0 - self.omega_m

    @property
    def hubble_distance_mpc(self) -> float:
        return C_KM_S / self.h0

    def efunc(self, z: np.ndarray | float) -> np.ndarray:
        """Dimensionless Hubble parameter E(z) = H(z)/H0."""
        z = np.asarray(z, dtype=float)
        return np.sqrt(self.omega_m * (1.0 + z) ** 3 + self.omega_lambda)

    def comoving_distance_mpc(self, z: float) -> float:
        """Line-of-sight comoving distance to redshift ``z`` in Mpc."""
        if z < 0:
            raise ValueError(f"redshift must be non-negative: {z}")
        if z == 0:
            return 0.0
        zs = np.linspace(0.0, z, 513)
        y = 1.0 / self.efunc(zs)
        # Composite Simpson over sample pairs, the arithmetic of
        # ``scipy.integrate.simpson(y, x=zs)`` operation for operation (so
        # bit-identical to it) without importing scipy.integrate.
        h = np.diff(zs)
        h0, h1 = h[0::2], h[1::2]
        hsum = h0 + h1
        hprod = h0 * h1
        h0divh1 = h0 / h1
        tmp = hsum / 6.0 * (
            y[0:-2:2] * (2.0 - 1.0 / h0divh1)
            + y[1:-1:2] * (hsum * (hsum / hprod))
            + y[2::2] * (2.0 - h0divh1)
        )
        return float(self.hubble_distance_mpc * np.sum(tmp))

    def angular_diameter_distance_mpc(self, z: float) -> float:
        """Angular diameter distance D_A = D_C / (1+z) for a flat universe."""
        return self.comoving_distance_mpc(z) / (1.0 + z)

    def kpc_per_arcsec(self, z: float) -> float:
        """Physical scale at redshift ``z``: kiloparsecs per arcsecond."""
        d_a_kpc = self.angular_diameter_distance_mpc(z) * 1000.0
        return d_a_kpc * np.deg2rad(1.0 / 3600.0)
