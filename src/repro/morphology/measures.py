"""The three morphology parameters of §2 (Conselice 2003).

All functions take background-subtracted images and are fully vectorised.
Every kernel accepts an optional :class:`~repro.morphology.geometry.CutoutGeometry`
so that a whole measurement (and, in batch mode, a whole campaign of
same-shape cutouts) shares one set of index grids, radius maps, sorted
permutations and aperture masks instead of rebuilding them per call.

The asymmetry minimisation is a 3x3 local search over sub-pixel centre
shifts.  The fast path centres the image once per axis with a separable
bilinear shift (numerically identical to ``scipy.ndimage.shift(order=1,
mode="nearest")``) and evaluates all nine candidate centres in one batched
residual computation against a single precomputed aperture mask — the seed
implementation ran nine full ``ndimage.shift`` calls and rebuilt the same
aperture mask nine times.
"""

from __future__ import annotations

import numpy as np

from repro.morphology.geometry import CutoutGeometry, shared_geometry

#: Flux fractions whose curve-of-growth radii give the concentration index
#: C = 5 log10(r80 / r20): shared by the scalar, stacked and reference kernels.
FRACTIONS = (0.2, 0.8)


def _geometry_for(image: np.ndarray, geometry: CutoutGeometry | None) -> CutoutGeometry:
    if geometry is not None:
        if geometry.shape != image.shape:
            raise ValueError(
                f"geometry shape {geometry.shape} does not match image shape {image.shape}"
            )
        return geometry
    return shared_geometry(image.shape)


def _aperture_flux(
    image: np.ndarray,
    center: tuple[float, float],
    radius: float,
    geometry: CutoutGeometry | None = None,
) -> float:
    """Total flux inside a circular aperture (pixel-centre membership)."""
    image = np.asarray(image)
    mask = _geometry_for(image, geometry).aperture_mask(center, radius)
    return float(image[mask].sum())


def curve_of_growth_radii(
    image: np.ndarray,
    center: tuple[float, float],
    total_radius: float,
    fractions: tuple[float, ...] = FRACTIONS,
    geometry: CutoutGeometry | None = None,
) -> tuple[float, ...]:
    """Radii enclosing the given fractions of the flux inside ``total_radius``.

    Computed from the exact pixel curve of growth (sorted radii + cumulative
    sum) so no radial binning error enters the concentration index.  The
    sorted-radius permutation comes from the geometry cache: one argsort per
    (shape, centre) instead of one per call.
    """
    image = np.asarray(image, dtype=float)
    geom = _geometry_for(image, geometry)
    r_sorted, order = geom.sorted_radii(center)
    flux_sorted = image.ravel()[order]
    k = int(np.searchsorted(r_sorted, float(total_radius), side="right"))
    r_in = r_sorted[:k]
    cumulative = np.cumsum(flux_sorted[:k])
    total = cumulative[-1] if cumulative.size else 0.0
    if total <= 0:
        raise ValueError("non-positive total flux inside the measurement aperture")
    out = []
    for fraction in fractions:
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"flux fraction must be in (0, 1): {fraction}")
        i = int(np.searchsorted(cumulative, fraction * total))
        out.append(float(r_in[min(i, r_in.size - 1)]))
    return tuple(out)


def concentration_index(
    image: np.ndarray,
    center: tuple[float, float],
    total_radius: float,
    geometry: CutoutGeometry | None = None,
) -> float:
    """Conselice concentration ``C = 5 log10(r80 / r20)``.

    High C (~4-5): core-dominated de Vaucouleurs ellipticals.
    Low C (~2-3): uniform-brightness exponential disks.
    """
    r20, r80 = curve_of_growth_radii(image, center, total_radius, (0.2, 0.8), geometry=geometry)
    r20 = max(r20, 0.5)  # guard: r20 inside the central pixel
    if r80 <= 0:
        raise ValueError("r80 is non-positive; source is unresolved")
    return float(5.0 * np.log10(r80 / r20))


def _axis_shift_into(
    src: np.ndarray,
    shift: float,
    axis: int,
    out: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Bilinear shift along one axis, edge-replicated, written into ``out``.

    The order-1 spline interpolation of ``scipy.ndimage.shift(..., order=1,
    mode="nearest")`` restricted to one axis: ``o[i] = (1-f) a[i0] + f
    a[i0+1]`` with ``i0 = floor(i - shift)``.  Because the shift is uniform,
    ``i0 = i + floor(-shift)`` and the fraction ``f = -shift - floor(-shift)``
    is a *scalar*: the whole operation is two offset slice views of ``src``
    blended by one scalar weight — no gather, no index arrays, no
    allocations (``scratch`` must have ``src``'s shape).

    Outside the interpolation interior both sample indices clamp to the
    same edge pixel, so the boundary is a constant fill of the edge slice.
    """
    n = src.shape[axis]
    m = int(np.floor(-float(shift)))
    frac = -float(shift) - m

    def sl(start: int, stop: int) -> tuple:
        idx: list[slice] = [slice(None)] * src.ndim
        idx[axis] = slice(start, stop)
        return tuple(idx)

    if frac == 0.0:  # pure integer shift: out[i] = src[clip(i + m)]
        if m >= n:
            out[...] = src[sl(n - 1, n)]
        elif m <= -n:
            out[...] = src[sl(0, 1)]
        elif m >= 0:
            out[sl(0, n - m)] = src[sl(m, n)]
            if m:
                out[sl(n - m, n)] = src[sl(n - 1, n)]
        else:
            out[sl(-m, n)] = src[sl(0, n + m)]
            out[sl(0, -m)] = src[sl(0, 1)]
        return

    lo_i = max(0, -m)  # first index whose low sample needs no clamping
    hi_i = min(n, n - 1 - m)  # first index whose high sample clamps
    if hi_i > lo_i:
        np.multiply(src[sl(lo_i + m, hi_i + m)], 1.0 - frac, out=out[sl(lo_i, hi_i)])
        tmp = scratch[sl(lo_i, hi_i)]
        np.multiply(src[sl(lo_i + m + 1, hi_i + m + 1)], frac, out=tmp)
        out[sl(lo_i, hi_i)] += tmp
    if lo_i > 0:
        out[sl(0, min(lo_i, n))] = src[sl(0, 1)]
    if hi_i < n:
        out[sl(max(hi_i, 0), n)] = src[sl(n - 1, n)]


def asymmetry_index(
    image: np.ndarray,
    center: tuple[float, float],
    radius: float,
    background_sigma: float = 0.0,
    optimize_center: bool = True,
    geometry: CutoutGeometry | None = None,
    early_exit: bool = True,
) -> float:
    """Rotational asymmetry ``A = min_c sum|I - I_180| / (2 sum|I|) - A_bg``.

    The 180-degree rotation is about ``center``; when ``optimize_center`` is
    set, a 3x3 grid of half-pixel centre shifts is searched and the minimum
    taken, per Conselice's prescription (asymmetry is defined at the centre
    that minimises it).  ``background_sigma`` subtracts the noise floor: for
    pure Gaussian noise the expected |I - I_180| residual is
    ``2 sigma / sqrt(pi)`` per pixel, and the correction is evaluated with
    the aperture and flux denominator of the *minimising* centre (the seed
    implementation inconsistently normalised it at the input centre).

    Fast path: the image is centred once per axis with a separable bilinear
    shift and the nine candidate centres are evaluated in one batched
    residual computation against a single cached aperture mask.  When
    ``early_exit`` is set and the unshifted residual is already below the
    noise floor the search is skipped and 0.0 returned (the corrected
    asymmetry at the input centre is non-positive; any other centre differs
    from zero only by the sub-ulp variation of the denominator).

    Spirals land at A >~ 0.1, ellipticals near 0.
    """
    image = np.asarray(image, dtype=float)
    geom = _geometry_for(image, geometry)
    cy, cx = center
    acy, acx = geom.array_center
    base_sy, base_sx = acy - cy, acx - cx
    weights = geom.aperture_weights(geom.array_center, radius)
    n_aperture = geom.aperture_npix(geom.array_center, radius)
    # Expected noise contribution to the residual: per pixel E|n1 - n2| =
    # 2 sigma / sqrt(pi); constant across candidate centres because the
    # aperture mask is fixed once the image (not the mask) is shifted.
    noise_residual = n_aperture * 2.0 * background_sigma / np.sqrt(np.pi)

    # A 180-degree rotation about the array centre reverses the row-major
    # flattened image, so "rotate" is a stride trick and every masked sum is
    # a dot product against the cached 0/1 aperture weights.  The rotation
    # residual is antisymmetric (d[k] = -d[N-1-k]) and the aperture is
    # rotation-symmetric, so only half the pairs are evaluated.  NOTE:
    # consumes (overwrites) ``flat``.
    def stats(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = flat.shape[-1]
        half = n // 2
        diff = flat[..., :half] - flat[..., : n - half - 1 : -1]
        np.abs(diff, out=diff)
        resid = 2.0 * (diff @ weights[:half])
        np.abs(flat, out=flat)
        denom = 2.0 * (flat @ weights)
        return resid, denom

    h, w = image.shape
    scratch = np.empty_like(image)
    row0 = np.empty_like(image)
    _axis_shift_into(image, base_sy, 0, row0, scratch)
    centred0: np.ndarray | None = None
    if early_exit and background_sigma > 0.0:
        # Unshifted candidate gates the early exit: if its rotation residual
        # is already below the expected noise residual, A = 0.
        centred0 = np.empty_like(image)
        _axis_shift_into(row0, base_sx, 1, centred0, scratch)
        resid0, denom0 = stats(centred0.ravel().copy())
        if denom0 > 0.0 and float(resid0) <= noise_residual:
            return 0.0

    if not optimize_center:
        if centred0 is None:
            centred0 = np.empty_like(image)
            _axis_shift_into(row0, base_sx, 1, centred0, scratch)
        flat = centred0.reshape(1, -1)
    else:
        offsets = (-0.5, 0.0, 0.5)
        rows = np.empty((3, h, w))
        rows[1] = row0
        _axis_shift_into(image, base_sy + 0.5, 0, rows[0], scratch)
        _axis_shift_into(image, base_sy - 0.5, 0, rows[2], scratch)
        # Column-shift the whole row stack once per x offset, written
        # straight into the candidate block in the seed's row-major
        # (oy, ox) order so argmin tie-breaking matches the sequential
        # search.
        candidates = np.empty((3, 3, h, w))
        scratch3 = np.empty((3, h, w))
        for ix, ox in enumerate(offsets):
            _axis_shift_into(rows, base_sx - ox, 2, candidates[:, ix], scratch3)
        flat = candidates.reshape(9, -1)

    resids, denoms = stats(flat)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(denoms > 0.0, resids / np.where(denoms > 0.0, denoms, 1.0), np.inf)
    best_index = int(np.argmin(ratios))
    best = float(ratios[best_index])
    if not np.isfinite(best):
        raise ValueError("asymmetry undefined: no flux inside the aperture")

    if background_sigma > 0.0:
        # Noise-floor correction at the minimising centre (consistent with
        # where the minimum was found).
        best = best - noise_residual / float(denoms[best_index])
    return float(max(best, 0.0))


def _axis_shift_batch(
    stack: np.ndarray,
    shifts: np.ndarray,
    axis: int,
    out: np.ndarray | None = None,
    padded_input: tuple[int, int] | None = None,
) -> np.ndarray:
    """Batched edge-clamped bilinear shift along one trailing axis.

    ``stack`` is ``(..., H, W)``; ``shifts`` broadcasts against the leading
    (batch) shape and gives each slice its own uniform shift along ``axis``
    (-2 for rows, -1 for columns).  Equivalent to :func:`_axis_shift_into`
    applied per slice: ``out[i] = (1-f)·src[clip(i+m)] + f·src[clip(i+m+1)]``
    with per-slice integer offset ``m`` and fraction ``f``.

    A shift is uniform within each slice, so no elementwise gather is
    needed: the source is padded once along the shift axis with
    edge-replicated rows (replication *is* the clamp), each slice's
    two-tap window is then a plain strided copy at that slice's own
    integer offset, and one fused blend covers the whole batch.  Interior
    pixels get the scalar path's arithmetic exactly; at the clamped edges
    the scalar path copies the edge pixel while this form computes
    ``(1-f)·e + f·e`` — at most 1 ulp apart, far inside the 1e-9 parity
    contract.  Integer shifts (f = 0) stay exact.  Every output slice
    depends only on its own source slice and shift, so results are
    independent of batch composition.

    ``padded_input=(lo_pad, hi_pad)`` declares that ``stack`` already
    carries that many edge-replicated planes along ``axis`` (a producer
    wrote straight into the interior of a pre-padded buffer), skipping
    the pad-and-copy here.  The pads must cover the shift range, i.e.
    ``lo_pad >= -min(floor(-shifts))`` and ``hi_pad >= max(floor(-shifts)) + 1``.
    """
    shifts = np.asarray(shifts, dtype=float)
    h, w = stack.shape[-2:]
    m_sh = np.floor(-shifts).astype(np.intp)
    if padded_input is not None:
        lo_pad, hi_pad = padded_input
        if axis == -2:
            h -= lo_pad + hi_pad
        else:
            w -= lo_pad + hi_pad
        padded = stack
    else:
        lo_pad = max(0, -int(m_sh.min()))
        hi_pad = max(0, int(m_sh.max()) + 1)
        if axis == -2:
            padded = np.empty(stack.shape[:-2] + (h + lo_pad + hi_pad, w))
            padded[..., lo_pad : lo_pad + h, :] = stack
            padded[..., :lo_pad, :] = stack[..., :1, :]
            padded[..., lo_pad + h :, :] = stack[..., h - 1 : h, :]
        else:
            padded = np.empty(stack.shape[:-2] + (h, w + lo_pad + hi_pad))
            padded[..., lo_pad : lo_pad + w] = stack
            padded[..., :lo_pad] = stack[..., :1]
            padded[..., lo_pad + w :] = stack[..., w - 1 : w]
    lead = np.broadcast_shapes(padded.shape[:-2], shifts.shape)
    n = h if axis == -2 else w
    psrc = np.broadcast_to(padded, lead + padded.shape[-2:])

    if out is None:
        out = np.empty(lead + (h, w), dtype=float)
    # Blend straight out of the padded source: both bilinear taps are
    # plain slices at the slice's own integer offset.  The loop runs only
    # over lead dims where the shifts actually vary — dims the shifts
    # merely broadcast across (e.g. the y-offset axis during the x pass
    # of the asymmetry lattice) are blended as one whole block — and the
    # block-sized scratch keeps the inner loop cache-resident instead of
    # cycling batch-sized temporaries.
    nd = len(lead)
    sh_own = (1,) * (nd - shifts.ndim) + shifts.shape
    neg = -shifts.reshape(sh_own)
    floor_neg = np.floor(neg)
    m_flat = (floor_neg.astype(np.intp) + lo_pad).ravel().tolist()
    f_flat = (neg - floor_neg).ravel().tolist()
    tmp = np.empty(tuple(lead[d] for d in range(nd) if sh_own[d] == 1) + (h, w))
    for i, idx in enumerate(np.ndindex(*sh_own)):
        o = m_flat[i]
        f = f_flat[i]
        sel = tuple(
            idx[d] if sh_own[d] > 1 else slice(None) for d in range(nd)
        )
        v = psrc[sel]
        if axis == -2:
            a, b = v[..., o : o + n, :], v[..., o + 1 : o + n + 1, :]
        else:
            a, b = v[..., o : o + n], v[..., o + 1 : o + n + 1]
        res = out[sel]
        np.multiply(a, 1.0 - f, out=res)
        np.multiply(b, f, out=tmp)
        res += tmp
    return out


#: Measurement windows are quantised to multiples of this half-width so
#: that a batch clusters into a handful of window groups instead of one
#: group per distinct radius.
_WINDOW_QUANTUM = 8


def _window_bounds(n: int, hw: int) -> tuple[int, int]:
    """Centre-symmetric window ``[lo, hi)`` of half-width ``hw`` on an axis
    of length ``n``.

    The window is symmetric about the array centre ``(n - 1) / 2`` (so a
    reversal of the window is still a 180-degree rotation about the same
    axis) and degenerates to the full axis when ``hw >= n // 2``.
    """
    lo = n // 2 - hw
    if lo <= 0:
        return 0, n
    return lo, n // 2 + hw + (n % 2)


def _window_groups(
    need: np.ndarray, h: int, w: int
) -> list[tuple[np.ndarray, tuple[int, int], tuple[int, int]]]:
    """Group batch rows by quantised measurement window.

    ``need`` is each row's required half-width; rows are bucketed to the
    next multiple of :data:`_WINDOW_QUANTUM` (capped at the full frame).
    Each row's window depends only on that row's own inputs, so the
    grouping — and therefore every downstream reduction length — is
    invariant under re-chunking of the batch.  Returns
    ``[(row_indices, (ylo, yhi), (xlo, xhi)), ...]``.
    """
    quantised = (np.maximum(need, 1) + _WINDOW_QUANTUM - 1) // _WINDOW_QUANTUM
    hw_y = np.minimum(quantised * _WINDOW_QUANTUM, h // 2)
    hw_x = np.minimum(quantised * _WINDOW_QUANTUM, w // 2)
    keys = hw_y * (max(h, w) + 1) + hw_x
    groups = []
    for key in np.unique(keys):
        rows = np.nonzero(keys == key)[0]
        i = int(rows[0])
        groups.append(
            (rows, _window_bounds(h, int(hw_y[i])), _window_bounds(w, int(hw_x[i])))
        )
    return groups


def asymmetry_index_batch(
    images: np.ndarray,
    centers_y: np.ndarray,
    centers_x: np.ndarray,
    radii: np.ndarray,
    background_sigmas: np.ndarray,
    geometry: CutoutGeometry,
) -> np.ndarray:
    """Rotational asymmetry of N same-shape cutouts in one stacked pass.

    Vectorises :func:`asymmetry_index` across the batch axis.  The
    residual/denominator contractions only read pixels with non-zero
    aperture weight, so each row is measured on a centre-symmetric window
    just large enough to hold its aperture plus the shift stencil — on
    typical campaign cutouts that is a small fraction of the frame.  Rows
    are grouped by quantised window size (:func:`_window_groups`) and each
    group evaluates the full 3x3 half-pixel centre lattice in two fused
    slice-blend shifts (one y pass building ``(N, 3, h, w)``, one x pass
    building ``(N, 3, 3, h, w)``) followed by a single batched ``matmul``
    contraction against the window's aperture weights.

    The unshifted candidate sits at lattice index 4, so the noise-floor
    early exit of the scalar path becomes a row mask applied after the
    lattice: exited rows return exactly 0.0, others the noise-corrected
    minimum — identical values, no separate centred pass.

    Every reduction is per-row and every window is derived from that
    row's own radius and shift, so results are invariant under
    re-chunking of the batch (the shared-memory pool property).  Returns
    an ``(N,)`` array; rows with no flux inside the aperture come back
    ``np.inf`` (scalar raises ``ValueError``) for the caller to flag
    invalid.
    """
    images = np.asarray(images, dtype=float)
    n_images, h, w = images.shape
    acy, acx = geometry.array_center
    base_sy = acy - np.asarray(centers_y, dtype=float)
    base_sx = acx - np.asarray(centers_x, dtype=float)
    radii = np.asarray(radii, dtype=float)
    sigmas = np.asarray(background_sigmas, dtype=float)

    n_aperture = geometry.aperture_npix_batch(geometry.array_center, radii)
    noise_residual = n_aperture * 2.0 * sigmas / np.sqrt(np.pi)
    r_map = geometry.radius_map(geometry.array_center)

    # Window: every pixel the aperture weights can see (r_map <= radius)
    # plus the reach of the bilinear stencil after the largest centre shift
    # (candidate offsets add ±0.5, the two taps reach floor(|s|)+1 <= |s|+1)
    # plus the half-pixel gap between the array centre and the window edge.
    # Any tighter and a shifted in-aperture pixel could sample a clamped
    # crop edge the full-frame scalar path never sees.
    shift_mag = np.maximum(np.abs(base_sy), np.abs(base_sx)) + 0.5
    with np.errstate(invalid="ignore"):
        need_f = np.where(np.isfinite(radii), radii, max(h, w)) + shift_mag + 2.0
    need = np.ceil(np.minimum(need_f, max(h, w))).astype(int)

    out = np.empty(n_images, dtype=float)
    for rows_g, (ylo, yhi), (xlo, xhi) in _window_groups(need, h, w):
        whole = rows_g.size == n_images
        src = images if whole else images[rows_g]
        sub = src[:, ylo:yhi, xlo:xhi]
        k = rows_g.size
        hc, wc = yhi - ylo, xhi - xlo
        n_pix = hc * wc
        half = n_pix // 2
        wts = (
            r_map[ylo:yhi, xlo:xhi].reshape(1, n_pix)
            <= radii[rows_g][:, None]
        ).astype(float)
        wts_col = wts[:, :, None]
        wts_half = np.ascontiguousarray(wts_col[:, :half])
        sy = base_sy if whole else base_sy[rows_g]
        sx = base_sx if whole else base_sx[rows_g]

        def stats(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # flat: (k, C, P) candidates.  The rotation residual is
            # antisymmetric and the aperture rotation-symmetric about the
            # window centre, so only the first half of each flattened
            # candidate is differenced against its reversal (the scalar
            # fast path's trick); masked sums are per-row matmul
            # contractions.  NOTE: consumes (overwrites) ``flat``.
            diff = flat[..., :half] - flat[..., : n_pix - half - 1 : -1]
            np.abs(diff, out=diff)
            resid = 2.0 * np.matmul(diff, wts_half)[..., 0]
            np.abs(flat, out=flat)
            denom = 2.0 * np.matmul(flat, wts_col)[..., 0]
            return resid, denom

        # Candidate lattice in the scalar search's (oy, ox) row-major
        # order — y offsets (+0.5, 0, -0.5) then x offsets likewise —
        # so argmin tie-breaking matches the sequential 3x3 walk.  The
        # x pass runs first (on the small (N, 3, h, w) intermediate)
        # and the y pass second: the y blend's slices are contiguous
        # blocks, so it is the cheaper pass to run at 3x the data.
        # Separable bilinear passes commute up to summation order, so
        # this differs from the scalar's y-then-x composition by at
        # most a few ulps — far inside the 1e-9 parity contract.
        offs = np.array([0.5, 0.0, -0.5])
        # The x pass writes straight into the interior of a buffer
        # already sized for the y pass's edge padding, so the y pass
        # never re-copies the (N, 3, h, w) intermediate.
        ys = (sy[:, None] + offs)[:, :, None]
        m_y = np.floor(-ys).astype(np.intp)
        lo_y = max(0, -int(m_y.min()))
        hi_y = max(0, int(m_y.max()) + 1)
        cols3p = np.empty((k, 3, hc + lo_y + hi_y, wc))
        interior = cols3p[:, :, lo_y : lo_y + hc]
        _axis_shift_batch(sub[:, None], sx[:, None] + offs, axis=-1, out=interior)
        cols3p[:, :, :lo_y] = interior[:, :, :1]
        cols3p[:, :, lo_y + hc :] = interior[:, :, hc - 1 : hc]
        cand = _axis_shift_batch(
            cols3p[:, None], ys, axis=-2, padded_input=(lo_y, hi_y)
        )
        resids, denoms = stats(cand.reshape(k, 9, n_pix))
        resid0, denom0 = resids[:, 4], denoms[:, 4]

        sig = sigmas[rows_g]
        noise = noise_residual[rows_g]
        exited = (sig > 0.0) & (denom0 > 0.0) & (resid0 <= noise)

        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(
                denoms > 0.0, resids / np.where(denoms > 0.0, denoms, 1.0), np.inf
            )
        best_index = np.argmin(ratios, axis=1)
        picked = np.arange(k)
        best = ratios[picked, best_index]
        with np.errstate(divide="ignore", invalid="ignore"):
            corrected = best - np.where(
                sig > 0.0, noise / denoms[picked, best_index], 0.0
            )
        best = np.where(np.isfinite(best), np.maximum(corrected, 0.0), np.inf)
        out[rows_g] = np.where(exited, 0.0, best)
    return out


def curve_of_growth_radii_batch(
    images: np.ndarray,
    centers_y: np.ndarray,
    centers_x: np.ndarray,
    total_radii: np.ndarray,
    geometry: CutoutGeometry,
    radius_maps: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched curve-of-growth radii: ``(radii (N, len(FRACTIONS)), totals)``.

    One stable batched argsort per window group feeds a per-row
    ``cumsum`` — identical per-row arithmetic to
    :func:`curve_of_growth_radii` (the sort runs over a per-row disc
    window instead of the whole frame; see the inline note).  Pass the
    precomputed ``(N, H, W)`` per-centre ``radius_maps`` when the caller
    already has them (the stacked pipeline computes one set for the
    Petrosian profile) to skip the ``hypot``.  Rows whose enclosed flux
    is non-positive carry ``totals[i] <= 0`` and NaN radii for the
    caller to flag.
    """
    fractions = FRACTIONS
    images = np.asarray(images, dtype=float)
    n_images = images.shape[0]
    h, w = geometry.shape
    cy = np.asarray(centers_y, dtype=float)
    cx = np.asarray(centers_x, dtype=float)
    total_radii = np.asarray(total_radii, dtype=float)
    acy, acx = geometry.array_center

    # The curve of growth only reads pixels with r <= total_radius, and the
    # sorted prefix of a window containing that disc is — stable argsort
    # ties fall back to row-major order, which a rectangular window
    # preserves — the exact pixel sequence the full-frame sort would
    # produce.  So each row sorts a centre-symmetric window just big
    # enough for its own disc (window choice is per-row: re-chunking the
    # batch cannot change any row's arithmetic).
    off = np.maximum(np.abs(cy - acy), np.abs(cx - acx))
    with np.errstate(invalid="ignore"):
        need_f = np.where(np.isfinite(total_radii), total_radii, max(h, w)) + off + 2.0
    need = np.ceil(np.minimum(need_f, max(h, w))).astype(int)

    out = np.full((n_images, len(fractions)), np.nan)
    totals = np.empty(n_images)
    for rows_g, (ylo, yhi), (xlo, xhi) in _window_groups(need, h, w):
        whole = rows_g.size == n_images
        src = images if whole else images[rows_g]
        flux = src[:, ylo:yhi, xlo:xhi].reshape(rows_g.size, -1)
        if radius_maps is not None:
            maps = radius_maps if whole else radius_maps[rows_g]
            r = maps[:, ylo:yhi, xlo:xhi].reshape(rows_g.size, -1)
        else:
            yy = geometry.yy[ylo:yhi, xlo:xhi]
            xx = geometry.xx[ylo:yhi, xlo:xhi]
            r = np.hypot(
                yy - cy[rows_g][:, None, None], xx - cx[rows_g][:, None, None]
            ).reshape(rows_g.size, -1)
        # Only pixels with r <= total_radius ever enter the prefix the
        # searches below read, and every such pixel sorts ahead of every
        # other one — so sort just the disc pixels, padded to a common
        # width with +inf radii / zero flux.  The stable sort keeps the
        # pad at the tail and the real prefix bit-identical to the
        # full-window sort; the selection is per-row, so batch
        # composition still cannot change any row's arithmetic.
        keep = r <= total_radii[rows_g][:, None]
        sel_rows, sel_cols = np.nonzero(keep)
        flat_sel = sel_rows * r.shape[1] + sel_cols
        counts = np.bincount(sel_rows, minlength=rows_g.size).astype(np.intp)
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        pos = np.arange(sel_rows.size) - starts[sel_rows]
        width = int(counts.max()) if counts.size else 0
        r_disc = np.full((rows_g.size, width), np.inf)
        flux_disc = np.zeros((rows_g.size, width))
        r_disc[sel_rows, pos] = r.ravel()[flat_sel]
        flux_disc[sel_rows, pos] = flux.ravel()[flat_sel]
        # Radii are non-negative (and the pad is +inf), so their IEEE-754
        # bit patterns viewed as uint64 sort in exactly the same order —
        # and NumPy's stable integer argsort is an O(n) radix pass.
        order = np.argsort(r_disc.view(np.uint64), axis=1, kind="stable")
        r_sorted = np.take_along_axis(r_disc, order, axis=1)
        flux_sorted = np.take_along_axis(flux_disc, order, axis=1)
        cumulative = np.cumsum(flux_sorted, axis=1)
        # Every kept pixel has r <= total_radius and every pad is +inf, so
        # the scalar path's searchsorted(r_sorted, total_radius, 'right')
        # is identically ``counts``; the pad fluxes are zero, so the
        # cumulative sum is constant past ``counts`` and the fraction
        # searches can run on the padded rows unchanged (argmax of the
        # same ``cum >= target`` predicate searchsorted evaluates).
        grows = np.arange(rows_g.size)
        last = np.maximum(counts - 1, 0)
        gtot = np.where(counts > 0, cumulative[grows, last], 0.0)
        totals[rows_g] = gtot
        # The fraction searches stay per-row np.searchsorted: the scalar
        # path bisects its (possibly non-monotone) cumulative array, and
        # only the identical bisection on the identical k-length prefix
        # reproduces its picks bit-for-bit.
        for g, i in enumerate(rows_g):
            k = int(counts[g])
            total = gtot[g]
            if total <= 0:
                continue
            for j, fraction in enumerate(fractions):
                p = int(np.searchsorted(cumulative[g, :k], fraction * total))
                out[i, j] = r_sorted[g, min(p, k - 1)]
    return out, totals


def concentration_index_batch(
    images: np.ndarray,
    centers_y: np.ndarray,
    centers_x: np.ndarray,
    total_radii: np.ndarray,
    geometry: CutoutGeometry,
    radius_maps: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Conselice concentration; returns ``(C, totals)``.

    Rows with non-positive enclosed flux (``totals[i] <= 0``) or a
    non-positive r80 come back NaN for the caller to flag invalid.
    ``radius_maps``, when provided, skips recomputing the per-centre
    radius maps (see :func:`curve_of_growth_radii_batch`).
    """
    radii, totals = curve_of_growth_radii_batch(
        images, centers_y, centers_x, total_radii, geometry, radius_maps
    )
    r20 = np.maximum(radii[:, 0], 0.5)
    r80 = radii[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(r80 > 0, 5.0 * np.log10(r80 / np.where(r80 > 0, r20, 1.0)), np.nan)
    return c, totals


def average_surface_brightness_batch(
    images: np.ndarray,
    radius_maps: np.ndarray,
    radii: np.ndarray,
    pixel_scales_arcsec: np.ndarray,
    zero_points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched mean surface brightness; returns ``(mu, fluxes)``.

    ``radius_maps`` are the per-centre maps (one broadcast ``hypot`` for
    the whole stack); aperture membership, flux sums and pixel counts are
    single masked passes.  Rows with non-positive aperture flux come back
    NaN with ``fluxes[i] <= 0`` for the caller to flag invalid.
    """
    images = np.asarray(images, dtype=float)
    radii = np.asarray(radii, dtype=float)
    inside = radius_maps <= radii[:, None, None]
    fluxes = np.where(inside, images, 0.0).sum(axis=(1, 2))
    n_pix = inside.sum(axis=(1, 2))
    areas = n_pix * np.asarray(pixel_scales_arcsec, dtype=float) ** 2
    ok = fluxes > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(
            ok,
            np.asarray(zero_points, dtype=float)
            - 2.5 * np.log10(np.where(ok, fluxes, 1.0) / np.where(areas > 0, areas, 1.0)),
            np.nan,
        )
    return mu, fluxes


def average_surface_brightness(
    image: np.ndarray,
    center: tuple[float, float],
    radius: float,
    pixel_scale_arcsec: float,
    zero_point: float = 0.0,
    geometry: CutoutGeometry | None = None,
) -> float:
    """Mean surface brightness inside ``radius``, mag / arcsec^2.

    ``mu = zero_point - 2.5 log10( flux / area_arcsec2 )`` — the "measure of
    the total amount of detected light (per area)" of §2.
    """
    if pixel_scale_arcsec <= 0:
        raise ValueError(f"pixel scale must be positive: {pixel_scale_arcsec}")
    image = np.asarray(image)
    geom = _geometry_for(image, geometry)
    flux = _aperture_flux(image, center, radius, geometry=geom)
    if flux <= 0:
        raise ValueError("non-positive aperture flux; cannot form a magnitude")
    n_pix = geom.aperture_npix(center, radius)
    area_arcsec2 = n_pix * pixel_scale_arcsec**2
    return float(zero_point - 2.5 * np.log10(flux / area_arcsec2))
