"""Tests for the Petrosian radius and the galMorph pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.morphology.petrosian import _binned_profile, petrosian_radius
from repro.morphology.pipeline import MorphologyResult, galmorph
from repro.sky.cluster import MorphType
from repro.sky.imaging import CutoutFactory
from repro.sky.profiles import pixel_integrated_sersic


def sersic_image(n=1.0, size=129, r_e=8.0, flux=1e5):
    c = (size - 1) / 2.0
    return pixel_integrated_sersic((size, size), (c, c), r_e, n, total_flux=flux)


def radial_profile(image, center, max_radius=None):
    """Bin radii and azimuthal means of the binned profile ``petrosian_radius`` walks."""
    radii, sums, counts = _binned_profile(image, center, None, max_radius)
    return radii, sums / np.maximum(counts, 1)


class TestRadialProfile:
    def test_flat_image(self):
        radii, means = radial_profile(np.ones((33, 33)), (16.0, 16.0))
        assert np.allclose(means[: len(means) // 2], 1.0)

    def test_declining_for_sersic(self):
        img = sersic_image()
        _, means = radial_profile(img, (64.0, 64.0), max_radius=40.0)
        assert means[0] > means[10] > means[30]


class TestPetrosianRadius:
    def test_exponential_reference(self):
        # For an exponential disk, the eta=0.2 Petrosian radius solves
        # e^-u u^2 / (2 (1 - (1+u) e^-u)) = 0.2 at u ~ 3.66 scale lengths,
        # i.e. r_p ~ 2.18 r_e.
        r_e = 8.0
        img = sersic_image(n=1.0, r_e=r_e)
        r_p = petrosian_radius(img, (64.0, 64.0), eta=0.2)
        assert r_p / r_e == pytest.approx(2.18, abs=0.15)

    def test_smaller_for_concentrated_profiles(self):
        r1 = petrosian_radius(sersic_image(n=1.0), (64.0, 64.0))
        r4 = petrosian_radius(sersic_image(n=4.0), (64.0, 64.0))
        assert r4 < r1

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            petrosian_radius(sersic_image(), (64.0, 64.0), eta=1.5)

    def test_flat_image_never_crosses(self):
        with pytest.raises(ValueError):
            petrosian_radius(np.ones((65, 65)), (32.0, 32.0))

    def test_scales_with_r_e(self):
        r_small = petrosian_radius(sersic_image(r_e=5.0), (64.0, 64.0))
        r_big = petrosian_radius(sersic_image(r_e=10.0), (64.0, 64.0))
        assert r_big / r_small == pytest.approx(2.0, rel=0.15)


class TestGalmorphPipeline:
    def _hdu(self, data, object_name="G-1"):
        header = Header()
        header.set("OBJECT", object_name)
        return ImageHDU(np.asarray(data, dtype=np.float32), header)

    def test_valid_measurement(self, small_cluster):
        factory = CutoutFactory(small_cluster)
        bright = min(factory.members(), key=lambda m: m.magnitude)
        result = galmorph(
            factory.render_cutout(bright.galaxy_id),
            redshift=bright.redshift,
            pix_scale=0.4 / 3600.0,
        )
        assert result.valid
        assert np.isfinite(result.concentration)
        assert np.isfinite(result.asymmetry)
        assert result.petrosian_radius_kpc > 0

    def test_empty_image_flagged_invalid(self):
        rng = np.random.default_rng(0)
        hdu = self._hdu(rng.normal(5, 1, (64, 64)))
        result = galmorph(hdu, redshift=0.05, pix_scale=1e-4)
        assert not result.valid
        assert "no significant central source" in result.error

    def test_no_data_flagged_invalid(self):
        result = galmorph(ImageHDU(None), redshift=0.05, pix_scale=1e-4)
        assert not result.valid

    def test_galaxy_id_from_header(self):
        rng = np.random.default_rng(0)
        hdu = self._hdu(rng.normal(5, 1, (64, 64)), object_name="NGP9_F323")
        assert galmorph(hdu, 0.05, 1e-4).galaxy_id == "NGP9_F323"

    def test_non_flat_cosmology_unsupported(self):
        hdu = self._hdu(np.zeros((16, 16)))
        with pytest.raises(NotImplementedError):
            galmorph(hdu, 0.05, 1e-4, flat=False)

    def test_never_raises_on_garbage_pixels(self):
        hdu = self._hdu(np.zeros((64, 64)))
        result = galmorph(hdu, 0.05, 1e-4)
        assert isinstance(result, MorphologyResult)
        assert not result.valid

    def test_type_separation_on_rendered_cutouts(self, small_cluster):
        factory = CutoutFactory(small_cluster)
        by_type: dict[MorphType, list[float]] = {}
        for member in factory.members():
            result = galmorph(
                factory.render_cutout(member.galaxy_id),
                redshift=member.redshift,
                pix_scale=0.4 / 3600.0,
            )
            if result.valid:
                by_type.setdefault(member.morph, []).append(result.concentration)
        if MorphType.ELLIPTICAL in by_type and MorphType.SPIRAL in by_type:
            assert np.mean(by_type[MorphType.ELLIPTICAL]) > np.mean(by_type[MorphType.SPIRAL])
