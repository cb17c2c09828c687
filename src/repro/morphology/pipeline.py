"""The galMorph job: FITS cutout in, morphology parameters out.

This is the executable behind the paper's VDL transformation::

    TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
                 in flat, in image, out galMorph )

and its per-galaxy derivations.  Failures ("the computation ... would fail
because of the bad quality of galaxy images or some other reasons",
§4.3.1(4)) are captured in the ``valid`` flag instead of propagating, so a
few bad images never take down a whole cluster run.

:func:`galmorph_batch` is the campaign-scale entry point: it runs many
cutouts through the pipeline while sharing one
:class:`~repro.morphology.geometry.CutoutGeometry` per cutout shape (index
grids, radius maps, sorted permutations, aperture masks) and running each
same-shape group through the stacked kernels.  Clustered compute nodes in
:mod:`repro.condor.local` route whole seqexec bundles through it.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro import telemetry
from repro.catalog.cosmology import H0, OMEGA_M, FlatLambdaCDM
from repro.fits.hdu import ImageHDU
from repro.morphology.background import estimate_background, estimate_background_batch
from repro.morphology.geometry import CutoutGeometry, shared_geometry
from repro.morphology.measures import (
    asymmetry_index,
    asymmetry_index_batch,
    average_surface_brightness,
    average_surface_brightness_batch,
    concentration_index,
    concentration_index_batch,
)
from repro.morphology.petrosian import (
    PETROSIAN_ERRORS,
    PETROSIAN_OK,
    petrosian_radius,
    petrosian_radius_batch,
)
from repro.morphology.segmentation import (
    central_source_mask,
    central_source_mask_batch,
    source_centroid,
    source_centroid_batch,
)

_ALLOCATOR_TUNED = False


def _tune_allocator() -> None:
    """Stop glibc from handing freed kernel buffers back to the OS.

    The stacked kernels cycle multi-hundred-KB temporaries on every batch
    call; glibc's default 128 KiB mmap threshold turns each of those into
    a fresh ``mmap``/``munmap`` pair, so every pass over a large array
    pays soft page faults instead of reusing warm pages.  Raising the
    mmap and trim thresholds once per process roughly halves the cost of
    the allocation-heavy hot path on this workload.  Silently a no-op on
    non-glibc platforms.  Trade-off: freed peak-usage pages stay resident in the
    process, which is bounded here by a few MB of kernel scratch.
    """
    global _ALLOCATOR_TUNED
    if _ALLOCATOR_TUNED:
        return
    _ALLOCATOR_TUNED = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 27)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 27)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):  # pragma: no cover - non-glibc
        pass


#: Everything a pathological cutout may legitimately raise out of the
#: measurement kernels.  ``np.errstate(... "raise")`` turns silent numpy
#: divide/invalid/overflow conditions into ``FloatingPointError``; scalar
#: Python math can raise ``ZeroDivisionError``; ``-W error`` runs escalate
#: ``RuntimeWarning``.  All of them become ``valid=False`` rows.
_MEASUREMENT_FAILURES = (
    ValueError,
    FloatingPointError,
    ZeroDivisionError,
    RuntimeWarning,
)


@lru_cache(maxsize=32)
def _cosmology(ho: float, om: float) -> FlatLambdaCDM:
    """Cosmology calculators keyed by (Ho, Om): one distance integral warm-up
    per parameter set instead of one object per galaxy."""
    return FlatLambdaCDM(h0=ho, omega_m=om)


@dataclass(frozen=True)
class MorphologyResult:
    """Per-galaxy output record, mirroring the paper's output VOTable row."""

    galaxy_id: str
    valid: bool
    surface_brightness: float = float("nan")
    concentration: float = float("nan")
    asymmetry: float = float("nan")
    petrosian_radius_arcsec: float = float("nan")
    petrosian_radius_kpc: float = float("nan")
    error: str = ""


def galmorph(
    image: ImageHDU,
    redshift: float,
    pix_scale: float,
    zero_point: float = 0.0,
    ho: float = H0,
    om: float = OMEGA_M,
    flat: bool = True,
    galaxy_id: str | None = None,
    geometry: CutoutGeometry | None = None,
) -> MorphologyResult:
    """Measure the three §2 morphology parameters of one galaxy cutout.

    Parameters mirror the VDL transformation: ``pix_scale`` is in
    degrees/pixel (the paper's derivation passes ``2.83e-4``), cosmology is
    (``ho``, ``om``, ``flat``).  Never raises for data-quality problems —
    returns ``valid=False`` with the failure reason instead; the
    measurement block runs under ``np.errstate`` so silent numpy failure
    modes surface as catchable ``FloatingPointError`` rather than NaNs or
    crashed cluster nodes.

    ``geometry`` lets batch callers share one cutout-geometry cache across
    galaxies of the same shape; when omitted the process-wide
    :func:`~repro.morphology.geometry.shared_geometry` cache is used.

    With telemetry enabled each call opens a ``galmorph.galaxy`` span,
    observes ``galmorph_seconds`` and counts ``valid=False`` rows in
    ``galmorph_invalid_rows_total`` (the §4.3.1(4) failure accounting —
    bad cutouts no longer vanish silently).  Disabled, the only cost is
    one flag test.
    """
    if not telemetry.enabled():
        return _galmorph_impl(
            image, redshift, pix_scale, zero_point, ho, om, flat, galaxy_id, geometry
        )
    with telemetry.trace_span("galmorph.galaxy") as span:
        t0 = time.perf_counter()
        result = _galmorph_impl(
            image, redshift, pix_scale, zero_point, ho, om, flat, galaxy_id, geometry
        )
        elapsed = time.perf_counter() - t0
        telemetry.observe("galmorph_seconds", elapsed)
        telemetry.count("galmorph_rows_total", valid=str(result.valid).lower())
        span.set(galaxy=result.galaxy_id, valid=result.valid)
        if not result.valid:
            telemetry.count("galmorph_invalid_rows_total")
            span.set(error=result.error)
    return result


def _galmorph_impl(
    image: ImageHDU,
    redshift: float,
    pix_scale: float,
    zero_point: float,
    ho: float,
    om: float,
    flat: bool,
    galaxy_id: str | None,
    geometry: CutoutGeometry | None,
) -> MorphologyResult:
    """The measurement body of :func:`galmorph` (untraced)."""
    if not flat:
        raise NotImplementedError("only flat cosmologies are supported, as in the paper")
    gid = galaxy_id if galaxy_id is not None else str(image.header.get("OBJECT", "unknown"))
    if image.data is None:
        return MorphologyResult(gid, valid=False, error="image HDU carries no data")
    try:
        data = np.asarray(image.data, dtype=float)
        geom = geometry if geometry is not None else shared_geometry(data.shape)
        with np.errstate(divide="raise", invalid="raise", over="raise", under="ignore"):
            background = estimate_background(data)
            subtracted = data - background.level
            mask = central_source_mask(data, background)
            if not mask.any():
                return MorphologyResult(gid, valid=False, error="no significant central source")
            center = source_centroid(subtracted, mask, geometry=geom)
            r_p = petrosian_radius(subtracted, center, geometry=geom)
            measure_radius = min(1.5 * r_p, min(data.shape) / 2.0 - 1.0)
            if measure_radius <= 1.0:
                return MorphologyResult(
                    gid, valid=False, error="source unresolved at this pixel scale"
                )

            pixel_scale_arcsec = abs(pix_scale) * 3600.0
            mu = average_surface_brightness(
                subtracted,
                center,
                measure_radius,
                pixel_scale_arcsec,
                zero_point=zero_point,
                geometry=geom,
            )
            c = concentration_index(subtracted, center, measure_radius, geometry=geom)
            a = asymmetry_index(
                subtracted,
                center,
                measure_radius,
                background_sigma=background.sigma,
                geometry=geom,
            )

        cosmo = _cosmology(float(ho), float(om))
        r_p_arcsec = r_p * pixel_scale_arcsec
        r_p_kpc = (
            r_p_arcsec * cosmo.kpc_per_arcsec(max(redshift, 0.0)) if redshift > 0 else float("nan")
        )
        return MorphologyResult(
            galaxy_id=gid,
            valid=True,
            surface_brightness=mu,
            concentration=c,
            asymmetry=a,
            petrosian_radius_arcsec=r_p_arcsec,
            petrosian_radius_kpc=r_p_kpc,
        )
    except _MEASUREMENT_FAILURES as exc:
        return MorphologyResult(gid, valid=False, error=str(exc))


@dataclass(frozen=True)
class GalmorphTask:
    """One galMorph invocation's inputs."""

    image: ImageHDU
    redshift: float
    pix_scale: float
    zero_point: float = 0.0
    ho: float = H0
    om: float = OMEGA_M
    flat: bool = True
    galaxy_id: str | None = None


def _task_gid(task: GalmorphTask) -> str:
    if task.galaxy_id is not None:
        return task.galaxy_id
    return str(task.image.header.get("OBJECT", "unknown"))


def _split_stackable(
    task_list: list[GalmorphTask],
) -> tuple[dict[tuple[int, int], list[int]], dict[int, np.ndarray], list[int]]:
    """Partition a batch into same-shape stackable groups and scalar leftovers.

    Stackable means: flat cosmology, 2-D float-convertible data, all pixels
    finite.  Everything else (missing data, weird dtypes, NaN/Inf pixels,
    non-flat cosmology) keeps the scalar path — including its exact error
    strings and the ``NotImplementedError`` contract.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    arrays: dict[int, np.ndarray] = {}
    scalar: list[int] = []
    for i, task in enumerate(task_list):
        data = task.image.data
        if task.flat and data is not None:
            try:
                arr = np.asarray(data, dtype=float)
            except (TypeError, ValueError):
                scalar.append(i)
                continue
            if arr.ndim == 2 and np.isfinite(arr).all():
                groups.setdefault(arr.shape, []).append(i)
                arrays[i] = arr
                continue
        scalar.append(i)
    return groups, arrays, scalar


def galmorph_stacked(
    stack: np.ndarray,
    ids: Sequence[str],
    redshifts: np.ndarray,
    pix_scales: np.ndarray,
    zero_points: np.ndarray,
    hos: np.ndarray,
    oms: np.ndarray,
    geometry: CutoutGeometry | None = None,
) -> list[MorphologyResult]:
    """Measure a whole ``(N, H, W)`` stack of same-shape cutouts in one pass.

    The stacked twin of :func:`_galmorph_impl`: every stage — background,
    segmentation, centroiding, Petrosian profile, surface brightness,
    concentration, asymmetry — runs once over the batch axis instead of N
    times, sharing one :class:`CutoutGeometry`.  Rows that fail a stage are
    retired with the scalar path's exact error string and the survivors are
    compacted, so later (more expensive) stages only see live rows.

    Inputs must be finite (callers route non-finite cutouts to the scalar
    path, which reproduces numpy's own error strings for them).  Each row's
    arithmetic is per-row independent, so running a sub-range of the stack
    produces bit-identical results to running the whole stack.
    """
    _tune_allocator()
    stack = np.asarray(stack, dtype=float)
    n = stack.shape[0]
    results: list[MorphologyResult | None] = [None] * n
    geom = geometry if geometry is not None else shared_geometry(stack.shape[1:])
    redshifts = np.asarray(redshifts, dtype=float)
    pix_scales = np.asarray(pix_scales, dtype=float)
    zero_points = np.asarray(zero_points, dtype=float)
    hos = np.asarray(hos, dtype=float)
    oms = np.asarray(oms, dtype=float)

    def retire(global_rows: np.ndarray, error: str | list[str]) -> None:
        for k, i in enumerate(global_rows):
            msg = error if isinstance(error, str) else error[k]
            results[int(i)] = MorphologyResult(ids[int(i)], valid=False, error=msg)

    try:
        backgrounds = estimate_background_batch(stack)
    except ValueError as exc:
        return [MorphologyResult(ids[i], valid=False, error=str(exc)) for i in range(n)]
    levels = np.array([bg.level for bg in backgrounds])
    sigmas = np.array([bg.sigma for bg in backgrounds])
    subtracted = stack - levels[:, None, None]

    masks = central_source_mask_batch(stack, backgrounds)
    has_source = masks.any(axis=(1, 2))
    if has_source.all():
        alive = np.arange(n)
    else:
        retire(np.nonzero(~has_source)[0], "no significant central source")
        alive = np.nonzero(has_source)[0]

    # Each stage retires its failures and compacts the survivor arrays so
    # later (more expensive) stages only see live rows; the common
    # all-clean batch skips every compaction copy.
    cy = cx = r_p = measure_radius = radius_maps = sub_alive = None
    if alive.size:
        sub_alive = subtracted if alive.size == n else subtracted[alive]
        cy, cx, totals = source_centroid_batch(
            sub_alive, masks if alive.size == n else masks[alive], geom
        )
        bad = totals <= 0
        if bad.any():
            retire(alive[bad], "source has no positive flux")
            keep = ~bad
            alive, cy, cx, sub_alive = alive[keep], cy[keep], cx[keep], sub_alive[keep]

    if alive.size:
        radius_maps = geom.radius_maps_batch(cy, cx)
        r_p, status = petrosian_radius_batch(sub_alive, radius_maps)
        bad = status != PETROSIAN_OK
        if bad.any():
            retire(alive[bad], [PETROSIAN_ERRORS[int(s)] for s in status[bad]])
            keep = ~bad
            alive, cy, cx, r_p = alive[keep], cy[keep], cx[keep], r_p[keep]
            sub_alive, radius_maps = sub_alive[keep], radius_maps[keep]

    if alive.size:
        measure_radius = np.minimum(1.5 * r_p, min(geom.shape) / 2.0 - 1.0)
        bad = measure_radius <= 1.0
        if bad.any():
            retire(alive[bad], "source unresolved at this pixel scale")
            keep = ~bad
            alive, cy, cx, r_p = alive[keep], cy[keep], cx[keep], r_p[keep]
            measure_radius = measure_radius[keep]
            sub_alive, radius_maps = sub_alive[keep], radius_maps[keep]

    psa = np.abs(pix_scales) * 3600.0
    mu = c = a = None
    if alive.size:
        bad = psa[alive] <= 0
        if bad.any():
            retire(
                alive[bad], [f"pixel scale must be positive: {p}" for p in psa[alive][bad]]
            )
            keep = ~bad
            alive, cy, cx, r_p = alive[keep], cy[keep], cx[keep], r_p[keep]
            measure_radius = measure_radius[keep]
            sub_alive, radius_maps = sub_alive[keep], radius_maps[keep]

    if alive.size:
        mu, fluxes = average_surface_brightness_batch(
            sub_alive, radius_maps, measure_radius, psa[alive], zero_points[alive]
        )
        bad = fluxes <= 0
        if bad.any():
            retire(alive[bad], "non-positive aperture flux; cannot form a magnitude")
            keep = ~bad
            alive, cy, cx, r_p, mu = alive[keep], cy[keep], cx[keep], r_p[keep], mu[keep]
            measure_radius, sub_alive = measure_radius[keep], sub_alive[keep]
            radius_maps = radius_maps[keep]

    if alive.size:
        c, totals = concentration_index_batch(
            sub_alive, cy, cx, measure_radius, geom, radius_maps
        )
        bad_total = totals <= 0
        bad_r80 = ~bad_total & ~np.isfinite(c)
        if bad_total.any() or bad_r80.any():
            retire(
                alive[bad_total], "non-positive total flux inside the measurement aperture"
            )
            retire(alive[bad_r80], "r80 is non-positive; source is unresolved")
            keep = ~(bad_total | bad_r80)
            alive, cy, cx, r_p, mu, c = (
                alive[keep], cy[keep], cx[keep], r_p[keep], mu[keep], c[keep],
            )
            measure_radius, sub_alive = measure_radius[keep], sub_alive[keep]

    if alive.size:
        a = asymmetry_index_batch(sub_alive, cy, cx, measure_radius, sigmas[alive], geom)
        bad = ~np.isfinite(a)
        if bad.any():
            retire(alive[bad], "asymmetry undefined: no flux inside the aperture")
            keep = ~bad
            alive, r_p, mu, c, a = alive[keep], r_p[keep], mu[keep], c[keep], a[keep]

    # Valid rows: convert to physical units.  The distance integral is the
    # only per-galaxy scalar cost left, so it is memoised per unique
    # (Ho, Om, z) triple across the batch.
    kpc_memo: dict[tuple[float, float, float], float] = {}
    for j, i in enumerate(alive):
        i = int(i)
        r_p_arcsec = float(r_p[j]) * psa[i]
        z = float(redshifts[i])
        if z > 0:
            key = (float(hos[i]), float(oms[i]), max(z, 0.0))
            kpc = kpc_memo.get(key)
            if kpc is None:
                kpc = _cosmology(key[0], key[1]).kpc_per_arcsec(key[2])
                kpc_memo[key] = kpc
            r_p_kpc = r_p_arcsec * kpc
        else:
            r_p_kpc = float("nan")
        results[i] = MorphologyResult(
            galaxy_id=ids[i],
            valid=True,
            surface_brightness=float(mu[j]),
            concentration=float(c[j]),
            asymmetry=float(a[j]),
            petrosian_radius_arcsec=r_p_arcsec,
            petrosian_radius_kpc=r_p_kpc,
        )
    return results  # type: ignore[return-value]


def _emit_batch_telemetry(results: Sequence[MorphologyResult], elapsed: float) -> None:
    """Per-galaxy spans/counters for rows measured by the stacked path.

    The stacked kernels process all rows at once, so per-row wall time is
    the batch time split evenly — the span *count* and the row/invalid
    counters stay exact, which is what the accounting contract needs.
    """
    if not telemetry.enabled() or not results:
        return
    per_row = elapsed / len(results)
    for result in results:
        with telemetry.trace_span("galmorph.galaxy") as span:
            telemetry.observe("galmorph_seconds", per_row)
            telemetry.count("galmorph_rows_total", valid=str(result.valid).lower())
            span.set(galaxy=result.galaxy_id, valid=result.valid)
            if not result.valid:
                telemetry.count("galmorph_invalid_rows_total")
                span.set(error=result.error)


def _stack_params(
    task_list: list[GalmorphTask], indices: Sequence[int]
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    ids = [_task_gid(task_list[i]) for i in indices]
    redshifts = np.array([task_list[i].redshift for i in indices], dtype=float)
    pix_scales = np.array([task_list[i].pix_scale for i in indices], dtype=float)
    zero_points = np.array([task_list[i].zero_point for i in indices], dtype=float)
    hos = np.array([task_list[i].ho for i in indices], dtype=float)
    oms = np.array([task_list[i].om for i in indices], dtype=float)
    return ids, redshifts, pix_scales, zero_points, hos, oms


def _run_scalar_leftovers(
    task_list: list[GalmorphTask],
    scalar_idx: Sequence[int],
    results: list[MorphologyResult | None],
) -> None:
    """Run the non-stackable tasks through the scalar path, in place."""
    geometries: dict[tuple[int, int], CutoutGeometry] = {}
    for i in scalar_idx:
        task = task_list[i]
        geom: CutoutGeometry | None = None
        data = task.image.data
        if data is not None and np.ndim(data) == 2:
            shape = tuple(np.shape(data))
            geom = geometries.get(shape)
            if geom is None:
                geom = geometries.setdefault(shape, shared_geometry(shape))
        results[i] = galmorph(
            task.image,
            redshift=task.redshift,
            pix_scale=task.pix_scale,
            zero_point=task.zero_point,
            ho=task.ho,
            om=task.om,
            flat=task.flat,
            galaxy_id=task.galaxy_id,
            geometry=geom,
        )


def galmorph_batch(tasks: Iterable[GalmorphTask]) -> list[MorphologyResult]:
    """Run many galMorph jobs, amortising per-cutout setup.

    Every task of a given cutout shape shares one :class:`CutoutGeometry`,
    so index grids, radius maps, sorted-radius permutations and aperture
    masks are built once per shape rather than once per galaxy — the §5
    campaign cuts all 1144 members to one shape — and each same-shape group
    runs through the stacked kernels in one pass; non-stackable tasks take
    the scalar path.  Output order matches input order.
    """
    task_list = list(tasks)
    # ``processes`` is always 1; trace readers and the reference trace of
    # the report tests carry the attribute.
    with telemetry.trace_span("galmorph.batch", n=len(task_list), processes=1):
        groups, arrays, scalar_idx = _split_stackable(task_list)
        results: list[MorphologyResult | None] = [None] * len(task_list)
        for shape, indices in groups.items():
            geom = shared_geometry(shape)
            stack = np.stack([arrays[i] for i in indices])
            ids, *params = _stack_params(task_list, indices)
            t0 = time.perf_counter()
            group_results = galmorph_stacked(stack, ids, *params, geometry=geom)
            _emit_batch_telemetry(group_results, time.perf_counter() - t0)
            for i, res in zip(indices, group_results):
                results[i] = res
        _run_scalar_leftovers(task_list, scalar_idx, results)
        return results  # type: ignore[return-value]
