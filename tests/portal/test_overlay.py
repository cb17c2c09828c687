"""Tests for the Figure 7 overlay data products."""

from __future__ import annotations

import pytest

from repro.fits.io import read_fits
from repro.fits.wcs import TanWCS
from repro.portal.demo import build_demo_environment
from repro.portal.overlay import build_overlay, write_overlay
from repro.votable.model import Field, VOTable


@pytest.fixture(scope="module")
def overlay_product():
    from repro.catalog.coords import SkyPosition
    from repro.sky.cluster import ClusterModel

    cluster = ClusterModel(
        name="OVL", center=SkyPosition(60.0, -20.0), redshift=0.04, n_galaxies=15,
        seed=21, context_image_count=6,
    )
    env = build_demo_environment(clusters=[cluster], seed_virtual_data_reuse=False)
    session = env.portal.run_analysis("OVL")
    return build_overlay(session.merged, cluster, optical_size=96, xray_size=48), cluster


class TestBuildOverlay:
    def test_layers_share_grid_and_wcs(self, overlay_product):
        product, _ = overlay_product
        assert product.optical.data.shape == product.xray.data.shape
        assert TanWCS.from_header(product.optical.header) == TanWCS.from_header(product.xray.header)

    def test_region_per_galaxy(self, overlay_product):
        product, cluster = overlay_product
        assert len(product.regions) == cluster.n_galaxies
        assert product.region_text.count("circle(") == cluster.n_galaxies

    def test_regions_lie_on_the_image(self, overlay_product):
        product, _ = overlay_product
        wcs = TanWCS.from_header(product.optical.header)
        height, width = product.optical.data.shape
        inside = 0
        for region in product.regions:
            x, y = wcs.sky_to_pixel(region.ra, region.dec)
            if 1 <= float(x) <= width and 1 <= float(y) <= height:
                inside += 1
        assert inside >= len(product.regions) * 0.9

    def test_missing_columns_rejected(self, overlay_product):
        _, cluster = overlay_product
        with pytest.raises(ValueError):
            build_overlay(VOTable([Field("ra", "double")]), cluster)


class TestWriteOverlay:
    def test_files_written_and_readable(self, overlay_product, tmp_path):
        product, cluster = overlay_product
        paths = write_overlay(product, tmp_path / "out")
        assert set(paths) == {"optical", "xray", "regions"}
        optical = read_fits(paths["optical"])
        xray = read_fits(paths["xray"])
        assert optical.data.shape == xray.data.shape
        assert paths["regions"].read_text().count("circle(") == cluster.n_galaxies
