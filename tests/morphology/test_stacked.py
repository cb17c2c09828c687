"""Stacked-kernel contract tests: parity and shape handling.

The stacked batch pipeline promises two things beyond raw speed:

1. numeric parity <= 1e-9 with the preserved seed kernels in
   :mod:`repro.morphology.reference` on *any* stackable cutout — square
   or not, even-sized or not;
2. batch-composition invariance — splitting a batch into chunks
   reproduces the whole-batch results bit for bit, and mixed-shape
   batches split into shape groups without any row contaminating another.

These tests pin both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fits.hdu import ImageHDU
from repro.morphology.pipeline import (
    GalmorphTask,
    galmorph_batch,
    galmorph_stacked,
)
from repro.morphology.reference import galmorph_reference
from repro.sky.cluster import GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image

PARITY = 1e-9

FIELDS = (
    "surface_brightness",
    "concentration",
    "asymmetry",
    "petrosian_radius_arcsec",
    "petrosian_radius_kpc",
)

TYPES = [MorphType.ELLIPTICAL, MorphType.SPIRAL, MorphType.IRREGULAR, MorphType.LENTICULAR]


def _render(i: int) -> np.ndarray:
    galaxy = GalaxyRecord(
        f"g{i}", 150.0, 2.0, 0.05, 17.0, TYPES[i % 4], 2.5, 0.25, 30.0, 0.2, 0.1
    )
    return np.asarray(
        render_galaxy_image(galaxy, rng=np.random.default_rng(500 + i)), dtype=float
    )


def _task(data: np.ndarray, gid: str) -> GalmorphTask:
    return GalmorphTask(
        image=ImageHDU(np.array(data)),
        redshift=0.05,
        pix_scale=0.4 / 3600.0,
        galaxy_id=gid,
    )


def _assert_parity(tasks: list[GalmorphTask], results) -> None:
    """Every batch row matches the scalar seed reference to <= PARITY."""
    assert len(results) == len(tasks)
    for task, got in zip(tasks, results):
        ref = galmorph_reference(
            task.image,
            redshift=task.redshift,
            pix_scale=task.pix_scale,
            galaxy_id=task.galaxy_id,
        )
        assert got.valid == ref.valid, task.galaxy_id
        for field in FIELDS:
            a, b = getattr(got, field), getattr(ref, field)
            if np.isnan(a) and np.isnan(b):
                continue
            assert abs(a - b) <= PARITY, (task.galaxy_id, field, a, b)


class TestShapeParity:
    """Parity vs reference.py beyond the comfortable square/even case."""

    @pytest.mark.parametrize("shape", [(64, 48), (48, 64), (63, 57), (57, 63), (61, 61)])
    def test_non_square_and_odd_cutouts(self, shape):
        h, w = shape
        tasks = [_task(_render(i)[:h, :w], f"crop-{i}") for i in range(4)]
        _assert_parity(tasks, galmorph_batch(tasks))

    def test_mixed_shape_batch_splits_into_groups(self):
        tasks = (
            [_task(_render(i), f"full-{i}") for i in range(3)]
            + [_task(_render(3 + i)[:, :48], f"wide-{i}") for i in range(2)]
            + [_task(_render(5 + i)[:63, :57], f"odd-{i}") for i in range(2)]
        )
        _assert_parity(tasks, galmorph_batch(tasks))

    def test_mixed_shape_rows_match_single_shape_runs(self):
        """A row's result is identical whether its shape group rode alone
        or alongside other groups — no cross-group contamination."""
        full = [_task(_render(i), f"full-{i}") for i in range(2)]
        odd = [_task(_render(2 + i)[:63, :57], f"odd-{i}") for i in range(2)]
        mixed = galmorph_batch(full + odd)
        alone = galmorph_batch(full) + galmorph_batch(odd)
        for got, want in zip(mixed, alone):
            assert got == want

    def test_single_row_batch(self):
        tasks = [_task(_render(0), "solo")]
        results = galmorph_batch(tasks)
        _assert_parity(tasks, results)
        assert results[0].valid

    def test_nan_pixels_flag_only_their_row(self):
        data = _render(1)
        data[30:34, 30:34] = np.nan
        tasks = [_task(_render(0), "clean"), _task(data, "nan-row")]
        results = galmorph_batch(tasks)
        assert results[0].valid
        assert not results[1].valid
        _assert_parity(tasks, results)

    def test_masked_border_pixels_match_reference(self):
        """Sentinel-masked (zeroed) pixels are data, not geometry: both
        paths must measure the same values on them."""
        data = _render(2)
        data[:2, :] = 0.0
        data[:, -2:] = 0.0
        tasks = [_task(data, "masked")]
        _assert_parity(tasks, galmorph_batch(tasks))


class TestChunkInvariance:
    """Chunking never changes results."""

    def _stack_inputs(self, n: int):
        stack = np.stack([_render(i) for i in range(n)])
        ids = [f"g{i}" for i in range(n)]
        z = np.full(n, 0.05)
        pix = np.full(n, 0.4 / 3600.0)
        zp = np.full(n, 25.0)
        ho = np.full(n, 70.0)
        om = np.full(n, 0.3)
        return stack, ids, z, pix, zp, ho, om

    def test_chunked_equals_whole_bitwise(self):
        stack, ids, z, pix, zp, ho, om = self._stack_inputs(8)
        whole = galmorph_stacked(stack, ids, z, pix, zp, ho, om)
        for split in (1, 3, 4, 7):
            parts = galmorph_stacked(
                stack[:split], ids[:split], z[:split], pix[:split],
                zp[:split], ho[:split], om[:split],
            ) + galmorph_stacked(
                stack[split:], ids[split:], z[split:], pix[split:],
                zp[split:], ho[split:], om[split:],
            )
            for got, want in zip(parts, whole):
                assert got == want, split
