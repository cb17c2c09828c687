"""Tests for galaxy rendering, cutouts, mosaics and X-ray maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fits.wcs import TanWCS
from repro.sky.cluster import GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image
from repro.sky.imaging import CutoutFactory, render_field_mosaic
from repro.sky.registry_data import DEMONSTRATION_CLUSTERS, demonstration_cluster
from repro.sky.xray import beta_model, render_xray_map


def make_galaxy(morph=MorphType.ELLIPTICAL, asym=0.0, mag=17.0) -> GalaxyRecord:
    return GalaxyRecord(
        galaxy_id="G-0001",
        ra=150.0,
        dec=2.0,
        redshift=0.05,
        magnitude=mag,
        morph=morph,
        r_e_arcsec=3.0,
        ellipticity=0.2,
        position_angle_deg=30.0,
        asymmetry_true=asym,
        radius_deg=0.1,
    )


class TestRenderGalaxy:
    def test_shape_and_dtype(self):
        img = render_galaxy_image(make_galaxy(), size=48)
        assert img.shape == (48, 48)
        assert img.dtype == np.float32

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            render_galaxy_image(make_galaxy(), size=4)

    def test_centrally_peaked(self):
        img = render_galaxy_image(make_galaxy(), size=64, noise_sigma=0.0)
        c = 31
        assert img[c, c] > img[5, 5]

    def test_flux_scales_with_magnitude(self):
        bright = render_galaxy_image(make_galaxy(mag=16.0), noise_sigma=0.0, sky_level=0.0).sum()
        faint = render_galaxy_image(make_galaxy(mag=18.5), noise_sigma=0.0, sky_level=0.0).sum()
        assert bright > 5 * faint

    def test_elliptical_more_concentrated_than_spiral(self):
        e = render_galaxy_image(make_galaxy(MorphType.ELLIPTICAL), noise_sigma=0.0, sky_level=0.0)
        s = render_galaxy_image(make_galaxy(MorphType.SPIRAL), noise_sigma=0.0, sky_level=0.0)
        c = e.shape[0] // 2
        central_fraction_e = e[c - 2 : c + 3, c - 2 : c + 3].sum() / e.sum()
        central_fraction_s = s[c - 2 : c + 3, c - 2 : c + 3].sum() / s.sum()
        assert central_fraction_e > central_fraction_s

    def test_asymmetric_galaxy_breaks_rotation_symmetry(self):
        sym = render_galaxy_image(make_galaxy(asym=0.0), noise_sigma=0.0, sky_level=0.0)
        asym = render_galaxy_image(
            make_galaxy(MorphType.SPIRAL, asym=0.4), noise_sigma=0.0, sky_level=0.0
        )

        def rot_residual(img):
            return np.abs(img - img[::-1, ::-1]).sum() / (2 * np.abs(img).sum())

        assert rot_residual(asym) > rot_residual(sym) + 0.02

    def test_deterministic_given_rng(self):
        from repro.utils.rng import derive_rng

        a = render_galaxy_image(make_galaxy(), rng=derive_rng(1, "x"))
        b = render_galaxy_image(make_galaxy(), rng=derive_rng(1, "x"))
        np.testing.assert_array_equal(a, b)


class TestCutoutFactory:
    def test_members_match_cluster(self, small_cluster):
        factory = CutoutFactory(small_cluster)
        assert len(factory.members()) == small_cluster.n_galaxies

    def test_unknown_galaxy(self, small_cluster):
        with pytest.raises(KeyError):
            CutoutFactory(small_cluster).member("nope")

    def test_cutout_metadata(self, small_cluster):
        factory = CutoutFactory(small_cluster, size=48)
        member = factory.members()[0]
        hdu = factory.render_cutout(member.galaxy_id)
        assert hdu.data.shape == (48, 48)
        assert hdu.header["OBJECT"] == member.galaxy_id
        assert hdu.header["CLUSTER"] == small_cluster.name

    def test_cutout_wcs_centered_on_galaxy(self, small_cluster):
        factory = CutoutFactory(small_cluster, size=64)
        member = factory.members()[3]
        hdu = factory.render_cutout(member.galaxy_id)
        wcs = TanWCS.from_header(hdu.header)
        ra, dec = wcs.pixel_to_sky(32.5, 32.5)
        assert float(ra) == pytest.approx(member.ra, abs=1e-9)
        assert float(dec) == pytest.approx(member.dec, abs=1e-9)

    def test_cutouts_byte_stable(self, small_cluster):
        a = CutoutFactory(small_cluster).render_cutout(f"{small_cluster.name}-0000")
        b = CutoutFactory(small_cluster).render_cutout(f"{small_cluster.name}-0000")
        np.testing.assert_array_equal(a.data, b.data)


class TestMosaicAndXray:
    def test_mosaic_shape_and_wcs(self, small_cluster):
        hdu = render_field_mosaic(small_cluster, size=128)
        assert hdu.data.shape == (128, 128)
        wcs = TanWCS.from_header(hdu.header)
        ra, dec = wcs.pixel_to_sky(64.5, 64.5)
        assert float(ra) == pytest.approx(small_cluster.center.ra, abs=1e-9)

    def test_mosaic_contains_sources(self, small_cluster):
        hdu = render_field_mosaic(small_cluster, size=128)
        # source pixels well above the 5-count sky
        assert hdu.data.max() > 20

    def test_beta_model_decreasing(self):
        r = np.linspace(0, 10, 50)
        s = beta_model(r, 10.0, 1.0)
        assert (np.diff(s) < 0).all()

    def test_beta_model_bad_core(self):
        with pytest.raises(ValueError):
            beta_model(np.array([1.0]), 1.0, 0.0)

    def test_xray_map_peaked_at_center(self, small_cluster):
        hdu = render_xray_map(small_cluster, size=64)
        c = 31
        center_mean = hdu.data[c - 4 : c + 5, c - 4 : c + 5].mean()
        corner_mean = hdu.data[:8, :8].mean()
        assert center_mean > 3 * corner_mean


class TestDemonstrationRegistry:
    def test_eight_clusters(self):
        assert len(DEMONSTRATION_CLUSTERS) == 8

    def test_galaxy_range_matches_paper(self):
        counts = sorted(c.n_galaxies for c in DEMONSTRATION_CLUSTERS)
        assert counts[0] == 37 and counts[-1] == 561

    def test_campaign_expectations(self):
        """The registry's sizes imply the paper's §5 totals."""
        n = len(DEMONSTRATION_CLUSTERS)
        members = sum(c.n_galaxies for c in DEMONSTRATION_CLUSTERS)
        context = sum(c.context_image_count for c in DEMONSTRATION_CLUSTERS)
        assert members + n == 1152  # compute jobs
        assert members + context == 1525  # images
        assert 2 * members + n - 1 == 2295  # transfers

    def test_lookup(self):
        assert demonstration_cluster("A1656").n_galaxies == 561
        with pytest.raises(KeyError):
            demonstration_cluster("A0000")
