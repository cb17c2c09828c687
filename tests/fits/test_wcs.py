"""Tests for the TAN WCS: projection correctness and round-trips."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fits.header import Header
from repro.fits.wcs import TanWCS


def make_wcs(ra=150.0, dec=2.2, scale=1e-4) -> TanWCS:
    return TanWCS(crval1=ra, crval2=dec, crpix1=32.5, crpix2=32.5, cdelt1=-scale, cdelt2=scale)


class TestConstruction:
    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            TanWCS(0, 0, 1, 1, 0.0, 1e-4)

    def test_bad_dec_rejected(self):
        with pytest.raises(ValueError):
            TanWCS(0, 95.0, 1, 1, -1e-4, 1e-4)


class TestProjection:
    def test_reference_pixel_maps_to_crval(self):
        wcs = make_wcs()
        ra, dec = wcs.pixel_to_sky(32.5, 32.5)
        assert float(ra) == pytest.approx(150.0, abs=1e-10)
        assert float(dec) == pytest.approx(2.2, abs=1e-10)

    def test_scale_near_reference(self):
        wcs = make_wcs()
        # one pixel along +y is cdelt2 degrees of Dec
        _, dec = wcs.pixel_to_sky(32.5, 33.5)
        assert float(dec) - 2.2 == pytest.approx(1e-4, rel=1e-6)

    def test_ra_axis_flipped(self):
        wcs = make_wcs()
        ra, _ = wcs.pixel_to_sky(33.5, 32.5)  # +x
        # cdelt1 < 0: RA decreases with x (per-cos-dec correction tiny here)
        assert float(ra) < 150.0

    def test_vectorised(self):
        wcs = make_wcs()
        x = np.array([1.0, 10.0, 30.0])
        y = np.array([1.0, 20.0, 60.0])
        ra, dec = wcs.pixel_to_sky(x, y)
        assert ra.shape == (3,)
        x2, y2 = wcs.sky_to_pixel(ra, dec)
        np.testing.assert_allclose(x2, x, atol=1e-8)
        np.testing.assert_allclose(y2, y, atol=1e-8)

    def test_horizon_rejected(self):
        wcs = make_wcs(ra=0.0, dec=0.0)
        with pytest.raises(ValueError):
            wcs.sky_to_pixel(180.0, 0.0)  # antipode

    @given(
        st.floats(0.0, 359.99),
        st.floats(-80.0, 80.0),
        st.floats(-100.0, 100.0),
        st.floats(-100.0, 100.0),
    )
    def test_roundtrip_property(self, ra0, dec0, dx, dy):
        wcs = TanWCS(crval1=ra0, crval2=dec0, crpix1=0.0, crpix2=0.0, cdelt1=-2e-4, cdelt2=2e-4)
        ra, dec = wcs.pixel_to_sky(dx, dy)
        x, y = wcs.sky_to_pixel(ra, dec)
        assert float(x) == pytest.approx(dx, abs=1e-6)
        assert float(y) == pytest.approx(dy, abs=1e-6)


class TestHeaderRoundTrip:
    def test_to_from_header(self):
        wcs = make_wcs()
        hdr = wcs.to_header()
        assert TanWCS.from_header(hdr) == wcs

    def test_wrong_ctype_rejected(self):
        hdr = make_wcs().to_header()
        hdr.set("CTYPE1", "RA---SIN")
        with pytest.raises(ValueError):
            TanWCS.from_header(hdr)

    def test_merges_into_existing_header(self):
        hdr = Header()
        hdr.set("OBJECT", "X")
        make_wcs().to_header(hdr)
        assert hdr["OBJECT"] == "X"
        assert hdr["CTYPE1"] == "RA---TAN"
