"""Shared cutout geometry: the hot-path cache behind the §5 campaign.

Every morphology kernel needs the same few arrays for a given cutout —
pixel index grids, a radius map about some centre, the sorted-radius
permutation that turns a curve of growth into one ``cumsum``, circular
aperture masks, radial-bin indices for Petrosian profiles.  The seed
implementation rebuilt each of these from ``np.indices``/``np.hypot`` on
every call: a single ``galmorph()`` recomputed identical coordinate grids
~15 times, and the 3x3 asymmetry centre search recomputed the same
aperture mask 9 times.

:class:`CutoutGeometry` computes each product once per (centre, radius)
and hands out **read-only** views, so one instance can be shared across
every kernel of a measurement — and, via :func:`shared_geometry`, across
every galaxy of a batch with the same cutout shape (the common case: a
cluster campaign cuts all members to one size).

Thread safety: all memo tables are guarded by a lock and every cached
array has ``writeable=False``, so instances are safe to share across the
``ThreadPoolExecutor`` workers of :class:`repro.condor.local.LocalExecutor`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import lru_cache

import numpy as np

from repro import telemetry

__all__ = [
    "CutoutGeometry",
    "index_grids",
    "border_mask",
    "shared_geometry",
]

#: Decimal places used to key aperture masks: radii closer than 1e-9 share
#: a mask (the parity contract of the fast path is <= 1e-9).
_RADIUS_KEY_DECIMALS = 9


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@lru_cache(maxsize=64)
def index_grids(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Cached ``np.indices`` grids ``(yy, xx)`` for a cutout shape.

    Read-only; identical values to ``np.indices(shape, dtype=float)``.
    """
    yy, xx = np.indices(shape, dtype=float)
    return _readonly(yy), _readonly(xx)


@lru_cache(maxsize=64)
def border_mask(shape: tuple[int, int], width: int) -> np.ndarray:
    """Cached boolean border-frame mask, ``width`` pixels deep (read-only)."""
    mask = np.zeros(shape, dtype=bool)
    mask[:width, :] = True
    mask[-width:, :] = True
    mask[:, :width] = True
    mask[:, -width:] = True
    return _readonly(mask)


class CutoutGeometry:
    """Memoised geometric products for one cutout shape.

    All results are exact — byte-identical arithmetic to the seed
    kernels' inline computations — just computed once.  Cache keys use the
    exact centre floats and the radius rounded to 1e-9 (two radii closer
    than the parity tolerance share an aperture mask).

    Memo tables are bounded LRUs (``max_entries`` per product kind), so a
    long-lived shared instance on a compute node cannot grow without
    bound.
    """

    def __init__(self, shape: tuple[int, int], max_entries: int = 64) -> None:
        if len(shape) != 2:
            raise ValueError(f"expected a 2-D cutout shape, got {shape!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.max_entries = int(max_entries)
        self.yy, self.xx = index_grids(self.shape)
        self._lock = threading.RLock()
        self._radius_maps: OrderedDict[tuple[float, float], np.ndarray] = OrderedDict()
        self._sorted: OrderedDict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = (
            OrderedDict()
        )
        self._masks: OrderedDict[tuple, tuple[np.ndarray, int]] = OrderedDict()
        self._radial_bins: OrderedDict[tuple, tuple[np.ndarray, int, np.ndarray]] = OrderedDict()

    # -- keys / bookkeeping ----------------------------------------------------
    @property
    def array_center(self) -> tuple[float, float]:
        """The (y, x) centre of the pixel grid — rotation axis of the
        asymmetry index."""
        return ((self.shape[0] - 1) / 2.0, (self.shape[1] - 1) / 2.0)

    @staticmethod
    def _center_key(center: tuple[float, float]) -> tuple[float, float]:
        return (float(center[0]), float(center[1]))

    def _get(self, table: OrderedDict, key, compute):
        """LRU lookup with bounded size; values are computed outside the
        fast path at most once per key (benign duplicate computation under
        a race is prevented by the lock).

        Hit/miss traffic feeds the ``geometry_cache_{hits,misses}_total``
        counters when telemetry is enabled; disabled, the cost is one
        flag test per lookup.
        """
        with self._lock:
            if key in table:
                table.move_to_end(key)
                value = table[key]
            else:
                value = None
        if value is not None:
            telemetry.count("geometry_cache_hits_total")
            return value
        telemetry.count("geometry_cache_misses_total")
        value = compute()
        with self._lock:
            if key not in table:
                table[key] = value
                if len(table) > self.max_entries:
                    table.popitem(last=False)
            else:
                table.move_to_end(key)
            return table[key]

    # -- products ---------------------------------------------------------------
    def radius_map(self, center: tuple[float, float]) -> np.ndarray:
        """``hypot(yy - cy, xx - cx)`` about ``center`` (read-only)."""
        key = self._center_key(center)

        def compute() -> np.ndarray:
            cy, cx = key
            return _readonly(np.hypot(self.yy - cy, self.xx - cx))

        return self._get(self._radius_maps, key, compute)

    def sorted_radii(self, center: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
        """``(r_sorted, order)``: flattened radii about ``center`` in
        ascending order and the argsort permutation that produced them.

        ``image.ravel()[order]`` puts pixel fluxes in curve-of-growth
        order; both arrays are read-only.
        """
        key = self._center_key(center)

        def compute() -> tuple[np.ndarray, np.ndarray]:
            r = self.radius_map(key).ravel()
            order = np.argsort(r, kind="stable")
            return _readonly(r[order]), _readonly(order)

        return self._get(self._sorted, key, compute)

    def aperture_mask(self, center: tuple[float, float], radius: float) -> np.ndarray:
        """Boolean mask ``radius_map(center) <= radius`` (read-only)."""
        return self._aperture(center, radius)[0]

    def aperture_npix(self, center: tuple[float, float], radius: float) -> int:
        """Pixel count of :meth:`aperture_mask` (cached with the mask)."""
        return self._aperture(center, radius)[1]

    def aperture_weights(self, center: tuple[float, float], radius: float) -> np.ndarray:
        """Flattened 0/1 float weights of :meth:`aperture_mask` (read-only).

        Masked sums become BLAS dot products against this vector — the form
        the batched asymmetry search consumes.
        """
        return self._aperture(center, radius)[2]

    def _aperture(
        self, center: tuple[float, float], radius: float
    ) -> tuple[np.ndarray, int, np.ndarray]:
        ckey = self._center_key(center)
        key = (ckey, round(float(radius), _RADIUS_KEY_DECIMALS))

        def compute() -> tuple[np.ndarray, int, np.ndarray]:
            mask = _readonly(self.radius_map(ckey) <= float(radius))
            weights = _readonly(mask.ravel().astype(float))
            return mask, int(mask.sum()), weights

        return self._get(self._masks, key, compute)

    # -- batch views ------------------------------------------------------------
    def radius_maps_batch(self, centers_y: np.ndarray, centers_x: np.ndarray) -> np.ndarray:
        """``(N, H, W)`` radius maps about N per-galaxy centres in one pass.

        Per-galaxy centroids are continuous, so these cannot be memoised —
        but one broadcast ``hypot`` over the whole stack replaces N scalar
        calls, and each row is elementwise identical to
        :meth:`radius_map` of that centre.
        """
        cy = np.asarray(centers_y, dtype=float)[:, None, None]
        cx = np.asarray(centers_x, dtype=float)[:, None, None]
        return np.hypot(self.yy - cy, self.xx - cx)

    def aperture_npix_batch(self, center: tuple[float, float], radii: np.ndarray) -> np.ndarray:
        """Pixel counts of N apertures about one shared centre.

        Uses the memoised sorted-radius permutation: the count of pixels
        with ``r <= radius`` is one ``searchsorted`` per batch instead of
        N mask sums.  Matches :meth:`aperture_npix` exactly (the mask is
        ``radius_map <= radius`` and ``r_sorted`` is the same array
        sorted).
        """
        r_sorted, _ = self.sorted_radii(center)
        return np.searchsorted(r_sorted, np.asarray(radii, dtype=float), side="right")

    def radial_bin_index(
        self,
        center: tuple[float, float],
        bin_width: float,
        max_radius: float | None = None,
    ) -> tuple[np.ndarray, int, np.ndarray]:
        """``(flat_idx, nbins, counts)`` for azimuthal-profile binning.

        ``flat_idx`` is the flattened per-pixel bin index (overflow bin =
        ``nbins``) and ``counts`` the per-bin pixel counts — both depend
        only on geometry, so a whole batch of same-shape cutouts shares
        one ``bincount`` of the index array.
        """
        ckey = self._center_key(center)
        r = self.radius_map(ckey)
        if max_radius is None:
            max_radius = float(r.max())
        key = (ckey, float(bin_width), float(max_radius))

        def compute() -> tuple[np.ndarray, int, np.ndarray]:
            nbins = max(int(np.ceil(max_radius / bin_width)), 1)
            idx = np.minimum((r / bin_width).astype(int), nbins)
            flat_idx = _readonly(idx.ravel())
            counts = _readonly(np.bincount(flat_idx, minlength=nbins + 1)[:nbins])
            return flat_idx, nbins, counts

        return self._get(self._radial_bins, key, compute)


@lru_cache(maxsize=32)
def shared_geometry(shape: tuple[int, int]) -> CutoutGeometry:
    """Process-wide shared :class:`CutoutGeometry` per cutout shape.

    This is what lets a clustered compute node amortise geometry across
    its 1144 galMorph members: every cutout of the same shape reuses one
    instance (thread-safe, bounded memoisation).
    """
    return CutoutGeometry(shape)
