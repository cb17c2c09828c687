"""Hierarchical RA/Dec sky tiling: the spatial partition key.

The paper's Giggle-style replica index is distributed by sky region; this
module supplies the partition function.  The celestial sphere is cut by a
quad-tree: level 0 is the whole sky, and each tile splits into four
children (RA halved, Dec halved), so level ``L`` has ``4**L`` tiles.  A
tile's identity is its root-to-leaf quadrant path — ``t3:201`` is the
level-3 tile reached by quadrants 2, 0, 1 — which makes ids *stable*:
deepening the tiling refines tiles without renaming their ancestors, and
two processes computing a tile id from the same position always agree.

Clusters map to tiles through their catalogued center.  Demonstration
clusters use their registry coordinates; any other name (synthetic load
targets, future catalogs) falls back to a deterministic pseudo-position
hashed from the name, uniform on the sphere — so *every* job routes to
exactly one tile without a central allocation step.

Equal-angle Dec splits make polar tiles smaller in solid angle than
equatorial ones; that is deliberate — tile ids must be recomputable from
bounds alone, and the consistent-hash ring (:mod:`repro.shard.ring`)
absorbs count imbalance when placing tiles on shards.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

#: Default tree depth: 4**3 = 64 tiles, the canonical fleet partition.
DEFAULT_LEVEL = 3


@dataclass(frozen=True)
class SkyTile:
    """One node of the sky quad-tree (bounds are half-open in RA/Dec)."""

    tile_id: str
    level: int
    ra_min: float
    ra_max: float
    dec_min: float
    dec_max: float

    @property
    def path(self) -> str:
        """Quadrant digits from the root (empty for the root tile)."""
        suffix = self.tile_id.partition(":")[2]
        return "" if suffix == "root" else suffix


def _tile_id(level: int, path: str) -> str:
    return f"t{level}:{path}" if path else f"t{level}:root"


ROOT = SkyTile(_tile_id(0, ""), 0, 0.0, 360.0, -90.0, 90.0)


def tile_for(ra: float, dec: float, level: int = DEFAULT_LEVEL) -> SkyTile:
    """The level-``level`` tile containing ``(ra, dec)`` degrees."""
    if not -90.0 <= dec <= 90.0:
        raise ValueError(f"dec {dec} outside [-90, 90]")
    if level < 0:
        raise ValueError(f"tile level must be >= 0, got {level}")
    ra = ra % 360.0
    ra_min, ra_max = 0.0, 360.0
    dec_min, dec_max = -90.0, 90.0
    path = ""
    for _ in range(level):
        ra_mid = 0.5 * (ra_min + ra_max)
        dec_mid = 0.5 * (dec_min + dec_max)
        east = ra >= ra_mid
        north = dec >= dec_mid
        # Quadrant digits: bit 0 = east, bit 1 = north.
        path += str((2 if north else 0) + (1 if east else 0))
        ra_min, ra_max = (ra_mid, ra_max) if east else (ra_min, ra_mid)
        dec_min, dec_max = (dec_mid, dec_max) if north else (dec_min, dec_mid)
    return SkyTile(_tile_id(level, path), level, ra_min, ra_max, dec_min, dec_max)


def children(tile: SkyTile) -> tuple[SkyTile, ...]:
    """The four next-level tiles refining ``tile``."""
    ra_mid = 0.5 * (tile.ra_min + tile.ra_max)
    dec_mid = 0.5 * (tile.dec_min + tile.dec_max)
    level = tile.level + 1
    prefix = tile.path
    quads = (
        (0, tile.ra_min, ra_mid, tile.dec_min, dec_mid),
        (1, ra_mid, tile.ra_max, tile.dec_min, dec_mid),
        (2, tile.ra_min, ra_mid, dec_mid, tile.dec_max),
        (3, ra_mid, tile.ra_max, dec_mid, tile.dec_max),
    )
    return tuple(
        SkyTile(_tile_id(level, f"{prefix}{digit}"), level, ra0, ra1, dec0, dec1)
        for digit, ra0, ra1, dec0, dec1 in quads
    )


def tiles_at_level(level: int = DEFAULT_LEVEL) -> tuple[SkyTile, ...]:
    """Every tile of one level, in stable id order."""
    frontier: tuple[SkyTile, ...] = (ROOT,)
    for _ in range(level):
        frontier = tuple(child for tile in frontier for child in children(tile))
    return tuple(sorted(frontier, key=lambda t: t.tile_id))


@lru_cache(maxsize=4096)
def position_for_cluster(name: str) -> tuple[float, float]:
    """A cluster's routing position in degrees.

    Catalogued demonstration clusters use their real registry coordinates;
    anything else gets a deterministic pseudo-position derived from the
    name, uniform on the sphere (``dec = asin(2u - 1)`` corrects the
    poleward area compression), so routing never needs a lookup service.
    """
    from repro.sky.registry_data import demonstration_cluster

    try:
        cluster = demonstration_cluster(name)
    except KeyError:
        digest = hashlib.sha256(f"tile-pos|{name}".encode("utf-8")).digest()
        u_ra = int.from_bytes(digest[:8], "big") / 2**64
        u_dec = int.from_bytes(digest[8:16], "big") / 2**64
        return (360.0 * u_ra, math.degrees(math.asin(2.0 * u_dec - 1.0)))
    return (cluster.center.ra, cluster.center.dec)


def tile_for_cluster(name: str) -> SkyTile:
    """The tile (of the canonical level) a named cluster's jobs route through."""
    return tile_for(*position_for_cluster(name))
