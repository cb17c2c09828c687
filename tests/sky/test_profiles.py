"""Tests for Sersic profile math."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, special

from repro.sky.profiles import sersic_b, sersic_profile


class TestSersicB:
    def test_n4_reference(self):
        # de Vaucouleurs: b ~ 7.669
        assert sersic_b(4.0) == pytest.approx(7.669, abs=0.01)

    def test_n1_reference(self):
        # exponential: b ~ 1.678
        assert sersic_b(1.0) == pytest.approx(1.678, abs=0.01)

    def test_positive_index_required(self):
        with pytest.raises(ValueError):
            sersic_b(0.0)

    @given(st.floats(0.5, 8.0))
    def test_monotonic(self, n):
        assert sersic_b(n + 0.1) > sersic_b(n)


class TestSersicProfile:
    def test_positive_everywhere(self):
        r = np.linspace(0, 50, 100)
        assert (sersic_profile(r, r_e=5.0, n=2.0) > 0).all()

    def test_decreasing(self):
        r = np.linspace(0.1, 30, 50)
        profile = sersic_profile(r, r_e=5.0, n=4.0)
        assert (np.diff(profile) < 0).all()

    def test_bad_r_e(self):
        with pytest.raises(ValueError):
            sersic_profile(np.array([1.0]), r_e=0.0, n=1.0)

    @pytest.mark.parametrize("n", [0.8, 1.0, 2.5, 4.0])
    def test_total_flux_normalisation(self, n):
        # numerically integrate 2 pi r I(r) dr out to many r_e
        r_e, flux = 4.0, 123.0
        r = np.linspace(1e-6, 60 * r_e, 200_001)
        integrand = 2 * np.pi * r * sersic_profile(r, r_e, n, total_flux=flux)
        total = integrate.simpson(integrand, x=r)
        assert total == pytest.approx(flux, rel=2e-2)

    @pytest.mark.parametrize("n", [1.0, 4.0])
    def test_half_light_radius(self, n):
        # half the flux inside r_e, by definition of b_n
        assert special.gammainc(2.0 * n, sersic_b(n)) == pytest.approx(0.5, abs=5e-3)
