"""Tests for cross-matching and local density estimation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.catalog.coords import angular_separation_deg
from repro.catalog.crossmatch import crossmatch_positions, radial_separation_deg
from repro.portal.analysis import local_density


class TestCrossmatch:
    def test_exact_match(self):
        pairs = crossmatch_positions(
            np.array([10.0, 20.0]),
            np.array([0.0, 5.0]),
            np.array([20.0, 10.0]),
            np.array([5.0, 0.0]),
        )
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_tolerance_respected(self):
        offset = 5.0 / 3600.0  # 5 arcsec
        pairs = crossmatch_positions(
            np.array([10.0]), np.array([0.0]),
            np.array([10.0 + offset]), np.array([0.0]),
            tolerance_arcsec=2.0,
        )
        assert pairs == []
        pairs = crossmatch_positions(
            np.array([10.0]), np.array([0.0]),
            np.array([10.0 + offset]), np.array([0.0]),
            tolerance_arcsec=6.0,
        )
        assert pairs == [(0, 0)]

    def test_nearest_neighbour_selected(self):
        pairs = crossmatch_positions(
            np.array([10.0]), np.array([0.0]),
            np.array([10.0003, 10.0001]), np.array([0.0, 0.0]),
            tolerance_arcsec=5.0,
        )
        assert pairs == [(0, 1)]

    def test_empty_catalogs(self):
        assert crossmatch_positions(np.array([]), np.array([]), np.array([1.0]), np.array([1.0])) == []
        assert crossmatch_positions(np.array([1.0]), np.array([1.0]), np.array([]), np.array([])) == []

    def test_ra_wrap_at_zero(self):
        # sources straddling RA=0 must still match
        pairs = crossmatch_positions(
            np.array([359.9999]), np.array([0.0]),
            np.array([0.0001]), np.array([0.0]),
            tolerance_arcsec=2.0,
        )
        assert pairs == [(0, 0)]

    def test_nearest_tie_goes_to_lowest_index(self):
        # +/-0.0001 deg from the equator is an exact tie; Dec order puts the
        # higher index first, the answer is still the lower one
        pairs = crossmatch_positions(
            np.array([10.0]), np.array([0.0]),
            np.array([10.0, 10.0, 10.0]), np.array([0.0003, 0.0001, -0.0001]),
            tolerance_arcsec=5.0,
        )
        assert pairs == [(0, 1)]


def _brute_force_pairs(ra1, dec1, ra2, dec2, tolerance_arcsec):
    """All-pairs oracle: per catalog-1 source, the nearest catalog-2 source
    by Vincenty separation within the tolerance, lowest index on a tie."""
    if len(ra1) == 0 or len(ra2) == 0:
        return []
    sep = angular_separation_deg(
        np.asarray(ra1)[:, None], np.asarray(dec1)[:, None], np.asarray(ra2)[None, :], np.asarray(dec2)[None, :]
    )
    pairs = []
    for i1, row in enumerate(sep):
        inside = [i2 for i2 in range(len(row)) if row[i2] <= tolerance_arcsec / 3600.0]
        if inside:
            pairs.append((i1, min(inside, key=lambda i2: (row[i2], i2))))
    return pairs


#: Catalog centres: RA wrap, the equator, mid-latitude and both poles.
_CENTRES = [(0.0, 0.0), (359.9999, 0.0), (150.0, 45.0), (10.0, 89.9999), (200.0, -89.99995), (0.0, 90.0)]
_STEP_ARCSEC = 0.5


def _tolerance_at(sep_deg: float) -> float | None:
    """A tolerance in arcsec that lands exactly on ``sep_deg`` (``None``
    when no float next to ``sep_deg * 3600`` divides back to it)."""
    guess = sep_deg * 3600.0
    for tol in (guess, np.nextafter(guess, np.inf), np.nextafter(guess, -np.inf)):
        if tol / 3600.0 == sep_deg:
            return float(tol)
    return None


@st.composite
def _catalog(draw, centre):
    """Positions on a half-arcsecond lattice around ``centre``: coarse
    enough that duplicate, coincident and exactly-spaced positions are
    common."""
    ra0, dec0 = centre
    cells = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), max_size=10))
    ra_scale = 1.0 / max(np.cos(np.deg2rad(dec0)), 1e-4)
    ra = np.array([(ra0 + i * _STEP_ARCSEC / 3600.0 * ra_scale) % 360.0 for i, _ in cells], dtype=float)
    dec = np.array([np.clip(dec0 + j * _STEP_ARCSEC / 3600.0, -90.0, 90.0) for _, j in cells], dtype=float)
    return ra, dec


@st.composite
def _crossmatch_case(draw):
    """Two catalogs around one centre and a tolerance: a round value, any
    value, or exactly the separation of one drawn pair (a point sitting
    on the tolerance, which must match)."""
    centre = draw(st.sampled_from(_CENTRES))
    (ra1, dec1), (ra2, dec2) = draw(_catalog(centre)), draw(_catalog(centre))
    kind = draw(st.sampled_from(["round", "any", "on-a-pair"]))
    if kind == "on-a-pair" and ra1.size and ra2.size:
        i1 = draw(st.integers(0, ra1.size - 1))
        i2 = draw(st.integers(0, ra2.size - 1))
        tolerance = _tolerance_at(float(angular_separation_deg(ra1[i1], dec1[i1], ra2[i2], dec2[i2])))
        assume(tolerance is not None and tolerance > 0)
    elif kind == "any":
        tolerance = draw(st.floats(0.1, 6.0))
    else:
        tolerance = draw(st.sampled_from([_STEP_ARCSEC, 1.0, 2.0, 2.5]))
    return (ra1, dec1, ra2, dec2), tolerance


class TestCrossmatchOracle:
    def test_point_exactly_at_tolerance_matches(self):
        ra1, dec1, ra2, dec2 = np.array([10.0]), np.array([0.0]), np.array([10.0]), np.array([2.0 / 3600])
        tolerance = _tolerance_at(float(angular_separation_deg(ra1[0], dec1[0], ra2[0], dec2[0])))
        assert crossmatch_positions(ra1, dec1, ra2, dec2, tolerance_arcsec=tolerance) == [(0, 0)]
        below = float(np.nextafter(tolerance, 0.0))
        assert crossmatch_positions(ra1, dec1, ra2, dec2, tolerance_arcsec=below) == []

    @given(_crossmatch_case())
    @example(((np.array([359.9999]), np.array([0.0]), np.array([0.0001]), np.array([0.0])), 2.0))
    @example(((np.array([]), np.array([]), np.array([1.0]), np.array([1.0])), 2.0))
    @example(((np.array([1.0]), np.array([1.0]), np.array([]), np.array([])), 2.0))
    @example(
        (
            (np.array([5.0, 5.0]), np.array([1.0, 1.0]), np.array([5.0, 5.0, 5.0]), np.array([1.0, 1.0, 1.0001])),
            2.0,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force(self, case):
        catalogs, tolerance_arcsec = case
        assert crossmatch_positions(*catalogs, tolerance_arcsec=tolerance_arcsec) == (
            _brute_force_pairs(*catalogs, tolerance_arcsec)
        )


class TestLocalDensity:
    def test_dense_region_higher(self):
        rng = np.random.default_rng(1)
        # 40 points in a tight clump + 40 spread wide
        clump_ra = 10.0 + rng.normal(0, 0.01, 40)
        clump_dec = 0.0 + rng.normal(0, 0.01, 40)
        field_ra = 10.0 + rng.uniform(-2, 2, 40)
        field_dec = rng.uniform(-2, 2, 40)
        ra = np.concatenate([clump_ra, field_ra])
        dec = np.concatenate([clump_dec, field_dec])
        density = local_density(ra, dec, n_neighbors=5)
        assert density[:40].mean() > 10 * density[40:].mean()

    def test_small_samples(self):
        assert local_density(np.array([1.0]), np.array([1.0])).tolist() == [0.0]
        out = local_density(np.array([1.0, 1.001]), np.array([0.0, 0.0]), n_neighbors=10)
        assert (out > 0).all()

    def test_all_positive(self):
        rng = np.random.default_rng(2)
        density = local_density(rng.uniform(0, 10, 30), rng.uniform(-5, 5, 30))
        assert (density > 0).all()

    def test_coincident_points_finite(self):
        ra = np.array([5.0, 5.0, 5.0])
        dec = np.array([1.0, 1.0, 1.0])
        assert np.isfinite(local_density(ra, dec, n_neighbors=2)).all()


class TestRadialSeparation:
    def test_matches_scalar_separation(self):
        out = radial_separation_deg(10.0, 0.0, np.array([10.0, 11.0]), np.array([0.0, 0.0]))
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0, rel=1e-6)
