"""Tests for the flat Lambda-CDM cosmology."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate

from repro.catalog.cosmology import C_KM_S, FlatLambdaCDM
from repro.sky.registry_data import DEMONSTRATION_CLUSTERS


class TestConstruction:
    def test_bad_h0(self):
        with pytest.raises(ValueError):
            FlatLambdaCDM(h0=0.0)

    def test_bad_omega(self):
        with pytest.raises(ValueError):
            FlatLambdaCDM(omega_m=0.0)
        with pytest.raises(ValueError):
            FlatLambdaCDM(omega_m=1.5)

    def test_flatness(self):
        cosmo = FlatLambdaCDM(omega_m=0.3)
        assert cosmo.omega_lambda == pytest.approx(0.7)


class TestDistances:
    def test_zero_redshift(self):
        cosmo = FlatLambdaCDM()
        assert cosmo.comoving_distance_mpc(0.0) == 0.0

    def test_negative_redshift_rejected(self):
        with pytest.raises(ValueError):
            FlatLambdaCDM().comoving_distance_mpc(-0.1)

    def test_low_z_hubble_law(self):
        # D ~ cz/H0 for z << 1
        cosmo = FlatLambdaCDM(h0=100.0)
        z = 0.01
        expected = C_KM_S * z / 100.0
        assert cosmo.comoving_distance_mpc(z) == pytest.approx(expected, rel=0.02)

    def test_einstein_de_sitter_analytic(self):
        # Omega_m = 1: D_C = 2 (c/H0) (1 - 1/sqrt(1+z))
        cosmo = FlatLambdaCDM(h0=70.0, omega_m=1.0)
        z = 1.0
        analytic = 2.0 * cosmo.hubble_distance_mpc * (1.0 - 1.0 / (1.0 + z) ** 0.5)
        assert cosmo.comoving_distance_mpc(z) == pytest.approx(analytic, rel=1e-4)

    def test_distance_relations(self):
        cosmo = FlatLambdaCDM()
        z = 0.5
        d_c = cosmo.comoving_distance_mpc(z)
        assert cosmo.angular_diameter_distance_mpc(z) == pytest.approx(d_c / 1.5)

    @given(st.floats(0.001, 3.0))
    def test_monotonic_in_z(self, z):
        cosmo = FlatLambdaCDM()
        assert cosmo.comoving_distance_mpc(z + 0.1) > cosmo.comoving_distance_mpc(z)

    def test_known_concordance_value(self):
        # For H0=70, Om=0.3: D_C(z=1) ~ 3300 Mpc (standard reference value)
        cosmo = FlatLambdaCDM(h0=70.0, omega_m=0.3)
        assert cosmo.comoving_distance_mpc(1.0) == pytest.approx(3300, rel=0.02)


def _scipy_simpson_distance(cosmo: FlatLambdaCDM, z: float) -> float:
    """The comoving distance as scipy computes it: the reference the
    in-package Simpson rule must match bit for bit."""
    zs = np.linspace(0.0, z, 513)
    return float(cosmo.hubble_distance_mpc * integrate.simpson(1.0 / cosmo.efunc(zs), x=zs))


class TestSimpsonParity:
    """The served process does not import scipy.integrate; its own Simpson
    rule must give the same bytes (every pixel scale depends on it)."""

    @pytest.mark.parametrize(
        "cosmo", [FlatLambdaCDM(), FlatLambdaCDM(h0=70.0, omega_m=0.25), FlatLambdaCDM(omega_m=1.0)]
    )
    def test_bit_identical_on_grid(self, cosmo):
        zs = [*np.linspace(0.0, 2.0, 401)[1:], *(c.redshift for c in DEMONSTRATION_CLUSTERS)]
        mismatched = [z for z in zs if cosmo.comoving_distance_mpc(float(z)) != _scipy_simpson_distance(cosmo, float(z))]
        assert mismatched == []

    @given(st.floats(1e-9, 5.0))
    def test_bit_identical_anywhere(self, z):
        cosmo = FlatLambdaCDM()
        assert cosmo.comoving_distance_mpc(z) == _scipy_simpson_distance(cosmo, z)


class TestScales:
    def test_kpc_per_arcsec_coma(self):
        # Coma (z=0.0231), H0=100: ~0.32 h^-1 kpc/arcsec
        cosmo = FlatLambdaCDM(h0=100.0)
        assert cosmo.kpc_per_arcsec(0.0231) == pytest.approx(0.327, rel=0.03)
