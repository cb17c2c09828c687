"""Golden parity: the geometry-cached fast path vs the seed kernels.

The fast-path contract is numeric parity to <= 1e-9 with the preserved
seed implementations in :mod:`repro.morphology.reference` (in practice the
differences are at the 1e-15 level — only floating-point summation order
moves).  These tests pin that contract on rendered cutouts of all three
morphology classes, pin absolute golden values so *both* implementations
drifting together is also caught, and check the batch paths reproduce the
sequential results exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.fits.hdu import ImageHDU
from repro.morphology.geometry import CutoutGeometry
from repro.morphology.measures import (
    asymmetry_index,
    average_surface_brightness,
    concentration_index,
    curve_of_growth_radii,
)
from repro.morphology.petrosian import petrosian_radius, radial_profile
from repro.morphology.pipeline import GalmorphTask, galmorph, galmorph_batch
from repro.morphology.reference import (
    asymmetry_index_reference,
    average_surface_brightness_reference,
    concentration_index_reference,
    curve_of_growth_radii_reference,
    galmorph_reference,
    petrosian_radius_reference,
    radial_profile_reference,
)
from repro.sky.cluster import GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image
from repro.sky.profiles import pixel_integrated_sersic

PARITY = 1e-9  # the contract; observed differences are ~1e-15

#: Fixed-seed §5-style cutouts: (record, rng seed) per morphology class.
GALAXIES = {
    "elliptical": (
        GalaxyRecord("e", 150.0, 2.0, 0.05, 17.0, MorphType.ELLIPTICAL, 4.0, 0.2, 0.0, 0.01, 0.05),
        1,
    ),
    "spiral": (
        GalaxyRecord("s", 150.0, 2.0, 0.06, 17.5, MorphType.SPIRAL, 1.2, 0.3, 40.0, 0.3, 0.1),
        2,
    ),
    "irregular": (
        GalaxyRecord("i", 150.0, 2.0, 0.07, 18.0, MorphType.IRREGULAR, 0.8, 0.4, 10.0, 0.5, 0.2),
        3,
    ),
}

#: Absolute golden values of the full pipeline (fast path == reference).
#: Tolerance 1e-6: loose enough for BLAS/platform variation, tight enough
#: to catch any semantic drift.
GOLDEN = {
    "elliptical": {
        "surface_brightness": -4.2543316474652295,
        "concentration": 3.565876903996154,
        "asymmetry": 0.007011759037096832,
        "petrosian_radius_arcsec": 6.371859628713825,
        "petrosian_radius_kpc": 4.3599206715280765,
    },
    "spiral": {
        "surface_brightness": -6.491653235212644,
        "concentration": 2.149732410945683,
        "asymmetry": 0.10045137480709077,
        "petrosian_radius_arcsec": 2.5645284501219283,
        "petrosian_radius_kpc": 2.0810080174796246,
    },
    "irregular": {
        "surface_brightness": -6.994674154243076,
        "concentration": 2.380188980954001,
        "asymmetry": 0.1051573166135404,
        "petrosian_radius_arcsec": 2.0799892765310073,
        "petrosian_radius_kpc": 1.9461648186813238,
    },
}


def _raw(name: str) -> np.ndarray:
    record, seed = GALAXIES[name]
    return np.asarray(
        render_galaxy_image(record, rng=np.random.default_rng(seed)), dtype=float
    )


def _cutout(name: str) -> np.ndarray:
    """Background-subtracted cutout, as the kernels see it inside galmorph."""
    img = _raw(name)
    return img - np.median(img)


def _hdu(name: str) -> ImageHDU:
    return ImageHDU(_raw(name))


@pytest.mark.parametrize("name", sorted(GALAXIES))
class TestKernelParity:
    """Fast kernels == seed kernels, per rendered morphology class."""

    def test_curve_of_growth(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = curve_of_growth_radii(img, center, 25.0)
        ref = curve_of_growth_radii_reference(img, center, 25.0)
        assert fast == pytest.approx(ref, abs=PARITY)

    def test_concentration(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = concentration_index(img, center, 25.0)
        ref = concentration_index_reference(img, center, 25.0)
        assert fast == pytest.approx(ref, abs=PARITY)

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_asymmetry(self, name, sigma):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = asymmetry_index(img, center, 24.0, background_sigma=sigma)
        ref = asymmetry_index_reference(img, center, 24.0, background_sigma=sigma)
        assert fast == pytest.approx(ref, abs=PARITY)

    def test_asymmetry_fixed_center(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = asymmetry_index(img, center, 24.0, optimize_center=False)
        ref = asymmetry_index_reference(img, center, 24.0, optimize_center=False)
        assert fast == pytest.approx(ref, abs=PARITY)

    def test_surface_brightness(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = average_surface_brightness(img, center, 25.0, 0.4, zero_point=25.0)
        ref = average_surface_brightness_reference(img, center, 25.0, 0.4, zero_point=25.0)
        assert fast == pytest.approx(ref, abs=PARITY)

    def test_radial_profile(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fr, fm = radial_profile(img, center)
        rr, rm = radial_profile_reference(img, center)
        np.testing.assert_allclose(fr, rr, atol=PARITY)
        np.testing.assert_allclose(fm, rm, atol=PARITY)

    def test_petrosian(self, name):
        img = _cutout(name)
        center = (31.2, 32.4)
        fast = petrosian_radius(img, center)
        ref = petrosian_radius_reference(img, center)
        assert fast == pytest.approx(ref, abs=PARITY)


@pytest.mark.parametrize("name", sorted(GALAXIES))
class TestPipelineParity:
    """Full galmorph == seed pipeline, plus pinned absolute golden values."""

    def test_fast_matches_reference(self, name):
        record, _ = GALAXIES[name]
        fast = galmorph(_hdu(name), redshift=record.redshift, pix_scale=0.4 / 3600.0,
                        galaxy_id=name)
        ref = galmorph_reference(_hdu(name), redshift=record.redshift,
                                 pix_scale=0.4 / 3600.0, galaxy_id=name)
        assert fast.valid and ref.valid
        for field in ("surface_brightness", "concentration", "asymmetry",
                      "petrosian_radius_arcsec", "petrosian_radius_kpc"):
            assert getattr(fast, field) == pytest.approx(getattr(ref, field), abs=PARITY)

    def test_golden_values(self, name):
        record, _ = GALAXIES[name]
        result = galmorph(_hdu(name), redshift=record.redshift, pix_scale=0.4 / 3600.0,
                          galaxy_id=name)
        assert result.valid
        for field, expected in GOLDEN[name].items():
            assert getattr(result, field) == pytest.approx(expected, abs=1e-6), field


class TestBatchEquivalence:
    def _tasks(self) -> list[GalmorphTask]:
        return [
            GalmorphTask(image=_hdu(name), redshift=GALAXIES[name][0].redshift,
                         pix_scale=0.4 / 3600.0, galaxy_id=name)
            for name in sorted(GALAXIES)
        ]

    def test_batch_matches_sequential(self):
        """The stacked batch path reproduces the scalar path within the
        parity contract (not bitwise: batched reductions sum in a
        different order) and stays valid on every row."""
        tasks = self._tasks()
        sequential = [
            galmorph(t.image, redshift=t.redshift, pix_scale=t.pix_scale,
                     galaxy_id=t.galaxy_id)
            for t in tasks
        ]
        batched = galmorph_batch(tasks)
        assert [r.galaxy_id for r in batched] == [r.galaxy_id for r in sequential]
        assert [r.valid for r in batched] == [r.valid for r in sequential]
        for seq, bat in zip(sequential, batched):
            for field in ("surface_brightness", "concentration", "asymmetry",
                          "petrosian_radius_arcsec", "petrosian_radius_kpc"):
                assert getattr(bat, field) == pytest.approx(
                    getattr(seq, field), abs=PARITY
                ), field

    def test_batch_matches_reference(self):
        """The stacked batch path honours the golden contract directly."""
        tasks = self._tasks()
        batched = galmorph_batch(tasks)
        for task, bat in zip(tasks, batched):
            ref = galmorph_reference(task.image, redshift=task.redshift,
                                     pix_scale=task.pix_scale, galaxy_id=task.galaxy_id)
            assert bat.valid and ref.valid
            for field in ("surface_brightness", "concentration", "asymmetry",
                          "petrosian_radius_arcsec", "petrosian_radius_kpc"):
                assert getattr(bat, field) == pytest.approx(
                    getattr(ref, field), abs=PARITY
                ), field

    def test_explicit_geometry_matches_shared(self):
        img = _cutout("spiral")
        geom = CutoutGeometry(img.shape)
        hdu = ImageHDU(img)
        with_geom = galmorph(hdu, redshift=0.06, pix_scale=0.4 / 3600.0,
                             galaxy_id="s", geometry=geom)
        without = galmorph(hdu, redshift=0.06, pix_scale=0.4 / 3600.0, galaxy_id="s")
        assert with_geom == without


class TestAsymmetrySemantics:
    def test_early_exit_zero_for_symmetric_noise_dominated(self):
        """A perfectly symmetric source with a large noise floor exits early
        at A = 0 — identical to what the full search clamps to."""
        img = pixel_integrated_sersic((65, 65), (32.0, 32.0), 6.0, 1.0, 1e4)
        img = ndimage.gaussian_filter(img, 1.2)
        center = (32.0, 32.0)
        fast = asymmetry_index(img, center, 28.0, background_sigma=50.0)
        ref = asymmetry_index_reference(img, center, 28.0, background_sigma=50.0)
        assert fast == 0.0
        assert ref == 0.0

    def test_early_exit_can_be_disabled(self):
        img = pixel_integrated_sersic((65, 65), (32.0, 32.0), 6.0, 1.0, 1e4)
        img = ndimage.gaussian_filter(img, 1.2)
        center = (32.0, 32.0)
        fast = asymmetry_index(img, center, 28.0, background_sigma=50.0, early_exit=False)
        ref = asymmetry_index_reference(img, center, 28.0, background_sigma=50.0)
        assert fast == pytest.approx(ref, abs=PARITY)

    def test_noise_floor_at_minimising_center(self):
        """The correction uses the minimising centre's denominator (the
        semantic fix) — both implementations agree on an asymmetric source
        whose minimising offset is not the input centre."""
        rng = np.random.default_rng(7)
        img = pixel_integrated_sersic((65, 65), (32.3, 31.6), 5.0, 1.5, 1e4)
        img += rng.normal(0.0, 0.5, img.shape)
        fast = asymmetry_index(img, (32.0, 32.0), 26.0, background_sigma=0.5)
        ref = asymmetry_index_reference(img, (32.0, 32.0), 26.0, background_sigma=0.5)
        assert fast == pytest.approx(ref, abs=PARITY)


class TestFailureHandling:
    """§4.3.1(4): bad images become valid=False rows, never exceptions."""

    def test_nan_pixels_invalid_row(self):
        img = np.full((64, 64), np.nan)
        result = galmorph(ImageHDU(img), redshift=0.05, pix_scale=0.4 / 3600.0,
                          galaxy_id="bad")
        assert not result.valid
        assert result.error

    def test_all_zero_image_invalid_row(self):
        result = galmorph(ImageHDU(np.zeros((64, 64))), redshift=0.05,
                          pix_scale=0.4 / 3600.0, galaxy_id="flat")
        assert not result.valid

    def test_negative_flux_image_invalid_row(self):
        rng = np.random.default_rng(0)
        img = rng.normal(-5.0, 0.1, (64, 64))
        img[30:34, 30:34] = 50.0  # a source, but surrounded by garbage
        result = galmorph(ImageHDU(img), redshift=0.05, pix_scale=0.4 / 3600.0,
                          galaxy_id="garbage")
        assert isinstance(result.valid, bool)  # never raises

    def test_batch_isolates_failures(self):
        tasks = [
            GalmorphTask(image=ImageHDU(np.full((64, 64), np.nan)), redshift=0.05,
                         pix_scale=0.4 / 3600.0, galaxy_id="bad"),
            GalmorphTask(image=_hdu("elliptical"), redshift=0.05,
                         pix_scale=0.4 / 3600.0, galaxy_id="good"),
        ]
        results = galmorph_batch(tasks)
        assert [r.valid for r in results] == [False, True]
