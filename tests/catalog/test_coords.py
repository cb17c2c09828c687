"""Tests for spherical geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.coords import (
    SkyPosition,
    angular_separation_deg,
    cone_contains,
)

ras = st.floats(0.0, 359.999)
decs = st.floats(-89.0, 89.0)


class TestSkyPosition:
    def test_ra_wraps(self):
        assert SkyPosition(370.0, 0.0).ra == pytest.approx(10.0)

    def test_dec_bounds(self):
        with pytest.raises(ValueError):
            SkyPosition(0.0, 91.0)

    def test_separation_symmetric(self):
        a, b = SkyPosition(10, 10), SkyPosition(20, -5)
        assert a.separation_deg(b) == pytest.approx(b.separation_deg(a))

    def test_offset_small_angle(self):
        p = SkyPosition(100.0, 60.0)
        q = p.offset(0.1, 0.0)
        # true-angle offset: separation ~0.1 deg despite high declination
        assert p.separation_deg(q) == pytest.approx(0.1, rel=1e-3)


class TestSeparation:
    def test_known_values(self):
        assert float(angular_separation_deg(0, 0, 90, 0)) == pytest.approx(90.0)
        assert float(angular_separation_deg(0, -90, 0, 90)) == pytest.approx(180.0)
        assert float(angular_separation_deg(10, 20, 10, 20)) == pytest.approx(0.0)

    def test_small_separation_precision(self):
        # Vincenty must resolve milliarcsecond scales
        sep = float(angular_separation_deg(150.0, 2.0, 150.0, 2.0 + 1e-7))
        assert sep == pytest.approx(1e-7, rel=1e-6)

    @given(ras, decs, ras, decs)
    def test_bounds_and_symmetry(self, ra1, dec1, ra2, dec2):
        s12 = float(angular_separation_deg(ra1, dec1, ra2, dec2))
        s21 = float(angular_separation_deg(ra2, dec2, ra1, dec1))
        assert 0.0 <= s12 <= 180.0 + 1e-9
        assert s12 == pytest.approx(s21, abs=1e-9)

    @given(ras, decs)
    def test_identity(self, ra, dec):
        assert float(angular_separation_deg(ra, dec, ra, dec)) == pytest.approx(0.0, abs=1e-9)

    @given(ras, decs, ras, decs, ras, decs)
    def test_triangle_inequality(self, ra1, dec1, ra2, dec2, ra3, dec3):
        s12 = float(angular_separation_deg(ra1, dec1, ra2, dec2))
        s23 = float(angular_separation_deg(ra2, dec2, ra3, dec3))
        s13 = float(angular_separation_deg(ra1, dec1, ra3, dec3))
        assert s13 <= s12 + s23 + 1e-7


class TestCone:
    def test_membership(self):
        ra = np.array([10.0, 10.5, 12.0])
        dec = np.array([0.0, 0.0, 0.0])
        mask = cone_contains(10.0, 0.0, 1.0, ra, dec)
        assert mask.tolist() == [True, True, False]

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            cone_contains(0, 0, -1.0, 0.0, 0.0)

    def test_zero_radius_contains_center(self):
        assert bool(cone_contains(5.0, 5.0, 0.0, 5.0, 5.0))
