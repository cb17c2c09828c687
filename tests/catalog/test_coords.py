"""Tests for spherical geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog.coords import (
    ConeIndex,
    SkyPosition,
    angular_separation_deg,
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


def full_scan(ra, dec, radius, pra, pdec, pad):
    """The reference the index must reproduce: test every position."""
    sep = angular_separation_deg(ra, dec, np.asarray(pra, float), np.asarray(pdec, float))
    return np.nonzero(sep <= radius + np.asarray(pad, float))[0].tolist()


class TestCone:
    def test_membership(self):
        index = ConeIndex([10.0, 10.5, 12.0], [0.0, 0.0, 0.0])
        assert index.query(10.0, 0.0, 1.0) == [0, 1]

    def test_negative_radius(self):
        for radius in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                ConeIndex([0.0], [0.0]).query(0.0, 0.0, radius)

    def test_zero_radius_contains_center(self):
        assert ConeIndex([5.0], [5.0]).query(5.0, 5.0, 0.0) == [0]

    def test_empty(self):
        assert ConeIndex([], []).query(10.0, 10.0, 180.0) == []

    @given(
        st.lists(st.tuples(ras, st.floats(-90.0, 90.0), st.floats(0.0, 3.0)), max_size=60),
        ras,
        st.floats(-90.0, 90.0),
        st.floats(0.0, 200.0),
    )
    def test_matches_full_scan(self, points, ra, dec, radius):
        pra, pdec, pad = ([p[k] for p in points] for k in range(3))
        assert ConeIndex(pra, pdec, pad).query(ra, dec, radius) == full_scan(
            ra, dec, radius, pra, pdec, pad
        )

    def test_boundary_poles_and_ra_wrap(self):
        rng = np.random.default_rng(3)
        pra = np.concatenate([rng.uniform(0, 360, 300), [359.99, 0.01, 0.0, 180.0]])
        pdec = np.concatenate([rng.uniform(-90, 90, 300), [0.0, 0.0, 89.99, -89.99]])
        index = ConeIndex(pra, pdec)
        for ra, dec in [(0.0, 0.0), (359.995, 0.0), (45.0, 89.5), (270.0, -89.8)]:
            sep = angular_separation_deg(ra, dec, pra, pdec)
            # each radius puts one position exactly on the cone's edge
            for radius in [0.0, *np.sort(sep)[:5], 90.0, 180.0, 181.0]:
                hits = index.query(ra, dec, float(radius))
                assert hits == full_scan(ra, dec, float(radius), pra, pdec, 0.0)
