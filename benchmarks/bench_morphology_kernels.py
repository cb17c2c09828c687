"""Kernel throughput: the vectorised morphology measurements.

Not a paper table — the §5 campaign's compute cost is dominated by these
kernels, so their scaling (with cutout size) is tracked here per the HPC
guide's "no optimisation without measuring".

Each hot kernel is benchmarked three ways where it matters:

* ``*_reference`` — the seed implementation (kept verbatim in
  :mod:`repro.morphology.reference`), the "before" number;
* the plain test — the geometry-cached fast path, cold shared cache
  behaviour amortised across benchmark rounds (the campaign steady state);
* ``*_batch`` — whole-batch execution through
  :func:`~repro.morphology.pipeline.galmorph_batch`, the clustered-node
  path.

``benchmarks/gates.py --quick`` runs the same seed-vs-fast pairs
headlessly and appends the speedups to ``BENCH_morphology.json`` so later
PRs can gate on regressions.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import ndimage

from repro.fits.hdu import ImageHDU
from repro.fits.io import read_fits_bytes, write_fits_bytes
from repro.morphology.geometry import CutoutGeometry
from repro.morphology.measures import asymmetry_index, concentration_index
from repro.morphology.pipeline import GalmorphTask, galmorph, galmorph_batch
from repro.morphology.reference import (
    asymmetry_index_reference,
    concentration_index_reference,
    galmorph_reference,
)
from repro.sky.cluster import GalaxyRecord, MorphType
from repro.sky.galaxy import render_galaxy_image
from repro.sky.profiles import pixel_integrated_sersic


def test_galaxy_rendering(benchmark):
    galaxy = GalaxyRecord(
        "bench-g", 150.0, 2.0, 0.05, 17.0, MorphType.SPIRAL, 3.5, 0.3, 45.0, 0.25, 0.1
    )
    rng = np.random.default_rng(0)
    image = benchmark(lambda: render_galaxy_image(galaxy, size=64, rng=rng))
    assert image.shape == (64, 64)


def _asymmetry_image(size: int) -> np.ndarray:
    img = pixel_integrated_sersic(
        (size, size), ((size - 1) / 2, (size - 1) / 2), size / 10, 1.0, 1e4
    )
    return ndimage.gaussian_filter(img, 1.2)


@pytest.mark.parametrize("size", [32, 64, 128])
def test_asymmetry_scaling(benchmark, size):
    img = _asymmetry_image(size)
    center = ((size - 1) / 2, (size - 1) / 2)
    a = benchmark(lambda: asymmetry_index(img, center, size / 2 - 2))
    assert a >= 0.0


@pytest.mark.parametrize("size", [32, 64, 128])
def test_asymmetry_scaling_reference(benchmark, size):
    """Seed asymmetry: nine full ``ndimage.shift`` calls per evaluation."""
    img = _asymmetry_image(size)
    center = ((size - 1) / 2, (size - 1) / 2)
    a = benchmark(lambda: asymmetry_index_reference(img, center, size / 2 - 2))
    assert a >= 0.0


@pytest.mark.parametrize("size", [32, 64, 128])
def test_asymmetry_geometry_reuse(benchmark, size):
    """Fast asymmetry with an explicitly shared geometry (clustered-node
    steady state: all shape-level setup amortised away)."""
    img = _asymmetry_image(size)
    center = ((size - 1) / 2, (size - 1) / 2)
    geom = CutoutGeometry((size, size))
    a = benchmark(lambda: asymmetry_index(img, center, size / 2 - 2, geometry=geom))
    assert a >= 0.0


@pytest.mark.parametrize("size", [32, 64, 128])
def test_concentration_scaling(benchmark, size):
    img = pixel_integrated_sersic((size, size), ((size - 1) / 2, (size - 1) / 2), size / 10, 4.0, 1e4)
    img = ndimage.gaussian_filter(img, 1.2)
    center = ((size - 1) / 2, (size - 1) / 2)
    c = benchmark(lambda: concentration_index(img, center, size / 2 - 2))
    assert c > 2.0


@pytest.mark.parametrize("size", [32, 64, 128])
def test_concentration_scaling_reference(benchmark, size):
    """Seed concentration: index grids + argsort rebuilt on every call."""
    img = pixel_integrated_sersic((size, size), ((size - 1) / 2, (size - 1) / 2), size / 10, 4.0, 1e4)
    img = ndimage.gaussian_filter(img, 1.2)
    center = ((size - 1) / 2, (size - 1) / 2)
    c = benchmark(lambda: concentration_index_reference(img, center, size / 2 - 2))
    assert c > 2.0


def test_full_galmorph_job(benchmark):
    """One complete galMorph invocation: FITS parse -> params (the §5 unit
    of work; 1144 of these per campaign)."""
    galaxy = GalaxyRecord(
        "bench-g2", 150.0, 2.0, 0.05, 17.0, MorphType.ELLIPTICAL, 4.0, 0.2, 0.0, 0.01, 0.05
    )
    payload = write_fits_bytes(
        __import__("repro.fits.hdu", fromlist=["ImageHDU"]).ImageHDU(
            render_galaxy_image(galaxy, rng=np.random.default_rng(1))
        )
    )

    def job():
        hdu = read_fits_bytes(payload)
        return galmorph(hdu, redshift=0.05, pix_scale=0.4 / 3600.0, galaxy_id="bench-g2")

    result = benchmark(job)
    assert result.valid


def test_full_galmorph_job_reference(benchmark):
    """The same §5 unit of work through the preserved seed pipeline — the
    "before" number for the geometry-cache speedup."""
    galaxy = GalaxyRecord(
        "bench-g2", 150.0, 2.0, 0.05, 17.0, MorphType.ELLIPTICAL, 4.0, 0.2, 0.0, 0.01, 0.05
    )
    payload = write_fits_bytes(ImageHDU(render_galaxy_image(galaxy, rng=np.random.default_rng(1))))

    def job():
        hdu = read_fits_bytes(payload)
        return galmorph_reference(
            hdu, redshift=0.05, pix_scale=0.4 / 3600.0, galaxy_id="bench-g2"
        )

    result = benchmark(job)
    assert result.valid


def test_galmorph_batch_shared_geometry(benchmark):
    """A 16-galaxy same-shape bundle through ``galmorph_batch`` — the
    clustered compute node's amortised path."""
    types = [MorphType.ELLIPTICAL, MorphType.SPIRAL, MorphType.IRREGULAR, MorphType.LENTICULAR]
    tasks = []
    for i in range(16):
        galaxy = GalaxyRecord(
            f"batch-{i}", 150.0, 2.0, 0.05, 17.0, types[i % 4], 2.5, 0.25, 30.0, 0.2, 0.1
        )
        hdu = ImageHDU(render_galaxy_image(galaxy, rng=np.random.default_rng(100 + i)))
        tasks.append(GalmorphTask(image=hdu, redshift=0.05, pix_scale=0.4 / 3600.0,
                                  galaxy_id=f"batch-{i}"))

    results = benchmark(lambda: galmorph_batch(tasks))
    assert len(results) == 16
    assert all(r.valid for r in results)
