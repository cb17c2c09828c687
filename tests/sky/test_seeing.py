"""The numpy Gaussian seeing equals ``scipy.ndimage.gaussian_filter`` bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.sky.galaxy import CUTOUT_SIZE, PIXEL_SCALE_ARCSEC, PSF_FWHM_ARCSEC
from repro.sky.seeing import gaussian_blur

#: The two sigmas the renderers use (cutout PSF, mosaic seeing), a sigma
#: whose radius ``int(4 sigma + 0.5)`` is 0, and a few others.
SIGMAS = (PSF_FWHM_ARCSEC / PIXEL_SCALE_ARCSEC / 2.3548, 2.0 / 2.3548, 0.1, 0.4, 1.0, 2.7)


@pytest.mark.parametrize("sigma", SIGMAS)
@pytest.mark.parametrize("shape", [(CUTOUT_SIZE, CUTOUT_SIZE), (65, 65), (9, 23)])
def test_equals_scipy_bit_for_bit(sigma, shape):
    rng = np.random.default_rng(17)
    for _ in range(20):
        image = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 4.0)
        expected = ndimage.gaussian_filter(image, sigma, mode="constant")
        assert gaussian_blur(image, sigma).tobytes() == expected.tobytes()


def test_mosaic_shape_equals_scipy_bit_for_bit():
    image = np.random.default_rng(3).exponential(50.0, (512, 512))
    sigma = 2.0 / 2.3548
    expected = ndimage.gaussian_filter(image, sigma, mode="constant")
    assert gaussian_blur(image, sigma).tobytes() == expected.tobytes()


def test_radius_zero_is_identity_and_input_is_untouched():
    image = np.random.default_rng(5).normal(size=(CUTOUT_SIZE, CUTOUT_SIZE))
    before = image.copy()
    out = gaussian_blur(image, 0.1)
    assert out.tobytes() == image.tobytes()
    assert out is not image and out.flags.c_contiguous
    assert image.tobytes() == before.tobytes()
