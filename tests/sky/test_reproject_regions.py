"""Tests for WCS reprojection and DS9 region export."""

from __future__ import annotations

import numpy as np
import pytest

from repro.catalog.regions import (
    CircleRegion,
    catalog_to_regions,
    color_for_value,
    write_region_file,
)
from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.wcs import TanWCS
from repro.sky.imaging import render_field_mosaic
from repro.sky.reproject import reproject_tan
from repro.sky.xray import render_xray_map
from repro.votable.model import Field, VOTable


def hdu_with_wcs(data, ra=150.0, dec=2.0, scale=1e-3):
    header = Header()
    header.set("OBJECT", "test")
    TanWCS(ra, dec, (data.shape[1] + 1) / 2, (data.shape[0] + 1) / 2, -scale, scale).to_header(header)
    return ImageHDU(np.asarray(data, dtype=np.float32), header)


class TestReproject:
    def test_identity_reprojection(self):
        data = np.random.default_rng(0).normal(10, 1, (32, 32))
        hdu = hdu_with_wcs(data)
        wcs = TanWCS.from_header(hdu.header)
        out = reproject_tan(hdu, wcs, (32, 32), order=1)
        np.testing.assert_allclose(out.data, data, rtol=1e-5)

    def test_point_source_lands_at_right_sky_position(self):
        # a delta function in the source frame must appear at the same sky
        # coordinates in a shifted, rescaled target frame
        data = np.zeros((64, 64), dtype=np.float32)
        data[40, 24] = 100.0
        source = hdu_with_wcs(data, scale=1e-3)
        source_wcs = TanWCS.from_header(source.header)
        ra_pt, dec_pt = source_wcs.pixel_to_sky(25.0, 41.0)  # 1-based

        target_wcs = TanWCS(float(ra_pt), float(dec_pt), 16.5, 16.5, -5e-4, 5e-4)
        out = reproject_tan(source, target_wcs, (32, 32), order=1)
        peak = np.unravel_index(np.argmax(out.data), out.data.shape)
        # target centre pixel (0-based ~ (15.5, 15.5))
        assert abs(peak[0] - 15.5) <= 1.0 and abs(peak[1] - 15.5) <= 1.0

    def test_out_of_frame_filled(self):
        data = np.ones((16, 16))
        source = hdu_with_wcs(data, ra=150.0)
        far_wcs = TanWCS(151.0, 2.0, 8.5, 8.5, -1e-3, 1e-3)  # a degree away
        out = reproject_tan(source, far_wcs, (16, 16), fill_value=-1.0)
        assert (out.data == -1.0).all()

    def test_target_carries_wcs_and_metadata(self):
        source = hdu_with_wcs(np.ones((8, 8)))
        wcs = TanWCS(150.0, 2.0, 4.5, 4.5, -2e-3, 2e-3)
        out = reproject_tan(source, wcs, (8, 8))
        assert TanWCS.from_header(out.header) == wcs
        assert out.header["OBJECT"] == "test"

    def test_validation(self):
        with pytest.raises(ValueError):
            reproject_tan(ImageHDU(None), TanWCS(0, 0, 1, 1, -1e-3, 1e-3), (8, 8))
        with pytest.raises(ValueError):
            reproject_tan(hdu_with_wcs(np.ones((8, 8))), TanWCS(0, 0, 1, 1, -1e-3, 1e-3), (8, 8), order=7)

    def test_xray_onto_optical_grid(self, tiny_cluster):
        optical = render_field_mosaic(tiny_cluster, size=64)
        xray = render_xray_map(tiny_cluster, size=32)
        target_wcs = TanWCS.from_header(optical.header)
        resampled = reproject_tan(xray, target_wcs, optical.data.shape)
        assert resampled.data.shape == optical.data.shape
        # x-ray emission is centrally peaked on the shared grid too
        c = optical.data.shape[0] // 2
        assert resampled.data[c - 4 : c + 4, c - 4 : c + 4].mean() > resampled.data[:6, :6].mean()


class TestRegions:
    def test_roundtrip(self):
        regions = [
            CircleRegion(150.123456, 2.2, 4.0, color="blue", label="G-1"),
            CircleRegion(150.2, -2.3, 2.0),
        ]
        lines = write_region_file(regions, comment="test layer").splitlines()
        assert lines[1] == "# test layer"
        assert lines[-3] == "fk5"
        assert lines[-2] == 'circle(150.123456,2.200000,4.00") # color=blue text={G-1}'
        assert lines[-1] == 'circle(150.200000,-2.300000,2.00") # color=green'

    def test_color_ramp(self):
        assert color_for_value(0.0, 0.0, 1.0) == "orange"
        assert color_for_value(1.0, 0.0, 1.0) == "blue"
        assert color_for_value(-5.0, 0.0, 1.0) == "orange"  # clipped
        assert color_for_value(0.5, 0.5, 0.5) == "orange"  # degenerate range

    def test_catalog_to_regions(self):
        table = VOTable(
            [
                Field("id", "char"),
                Field("ra", "double"),
                Field("dec", "double"),
                Field("valid", "boolean"),
                Field("asymmetry", "double"),
            ]
        )
        table.append(["g1", 150.0, 2.0, True, 0.01])
        table.append(["g2", 150.1, 2.1, True, 0.40])
        table.append(["g3", 150.2, 2.2, False, None])
        regions = catalog_to_regions(table)
        assert len(regions) == 3
        assert regions[0].color == "orange"  # most symmetric
        assert regions[1].color == "blue"  # most asymmetric
        assert regions[2].color == "red" and "invalid" in regions[2].label
        assert write_region_file(regions).count("circle(") == 3
