"""The sky quad-tree: stable ids, exact coverage, deterministic routing."""

from __future__ import annotations

import math

import pytest

from repro.shard.tiling import (
    DEFAULT_LEVEL,
    ROOT,
    SkyTile,
    children,
    position_for_cluster,
    tile_for,
    tile_for_cluster,
    tiles_at_level,
)
from repro.sky.registry_data import DEMONSTRATION_CLUSTERS


def _center(tile: SkyTile) -> tuple[float, float]:
    return 0.5 * (tile.ra_min + tile.ra_max), 0.5 * (tile.dec_min + tile.dec_max)


def _contains(tile: SkyTile, ra: float, dec: float) -> bool:
    """The tile's bounds as a membership test, independent of ``tile_for``'s descent."""
    in_ra = tile.ra_min <= ra % 360.0 < tile.ra_max
    # The north pole belongs to the topmost tiles, not to nothing.
    in_dec = tile.dec_min <= dec < tile.dec_max or (dec == 90.0 and tile.dec_max == 90.0)
    return in_ra and in_dec


def _grid(n_ra: int = 24, n_dec: int = 13) -> list[tuple[float, float]]:
    return [
        (360.0 * i / n_ra, -90.0 + 180.0 * j / (n_dec - 1))
        for i in range(n_ra)
        for j in range(n_dec)
    ]


class TestTileIds:
    def test_root_identity(self):
        assert ROOT.tile_id == "t0:root"
        assert tile_for(123.4, -45.6, level=0) == ROOT

    def test_id_encodes_level_and_path(self):
        tile = tile_for(200.0, 30.0, level=3)
        assert tile.tile_id == f"t3:{tile.path}"
        assert len(tile.path) == 3
        assert set(tile.path) <= set("0123")

    def test_ids_are_stable_across_processes_by_construction(self):
        # Pure function of position: recomputation always agrees.
        for ra, dec in _grid():
            assert tile_for(ra, dec).tile_id == tile_for(ra, dec).tile_id

    def test_deepening_refines_without_renaming(self):
        # A level-L path is a prefix of the same point's level-(L+1) path:
        # ancestors keep their identity when the tiling deepens.
        for ra, dec in _grid():
            for level in range(3):
                shallow = tile_for(ra, dec, level)
                deep = tile_for(ra, dec, level + 1)
                assert deep.path.startswith(shallow.path)

    def test_ra_wraps_dec_validates(self):
        assert tile_for(365.0, 10.0) == tile_for(5.0, 10.0)
        assert tile_for(-10.0, 10.0) == tile_for(350.0, 10.0)
        with pytest.raises(ValueError):
            tile_for(10.0, 91.0)
        with pytest.raises(ValueError):
            tile_for(10.0, 0.0, level=-1)


class TestCoverage:
    def test_level_has_4_to_the_L_distinct_tiles(self):
        for level in (0, 1, 2, DEFAULT_LEVEL):
            tiles = tiles_at_level(level)
            assert len(tiles) == 4**level
            assert len({t.tile_id for t in tiles}) == 4**level

    def test_every_point_in_exactly_one_tile(self):
        tiles = tiles_at_level(2)
        for ra, dec in _grid():
            holding = [t for t in tiles if _contains(t, ra, dec)]
            assert len(holding) == 1
            assert holding[0] == tile_for(ra, dec, 2)

    def test_poles_and_seams_belong_somewhere(self):
        tiles = tiles_at_level(DEFAULT_LEVEL)
        for ra, dec in [(0.0, 90.0), (0.0, -90.0), (359.999, 0.0), (180.0, 0.0)]:
            assert sum(_contains(t, ra, dec) for t in tiles) == 1

    def test_tile_contains_its_center(self):
        for tile in tiles_at_level(DEFAULT_LEVEL):
            ra, dec = _center(tile)
            assert _contains(tile, ra, dec)
            assert tile_for(ra, dec, tile.level) == tile


class TestTreeStructure:
    def test_children_partition_the_parent(self):
        tile = tile_for(200.0, 30.0, level=2)
        kids = children(tile)
        assert len(kids) == 4
        for kid in kids:
            assert kid.level == tile.level + 1
            assert kid.path.startswith(tile.path)
            assert tile_for(*_center(kid), tile.level) == tile
        # the four children tile the parent's bounds exactly
        assert min(k.ra_min for k in kids) == tile.ra_min
        assert max(k.ra_max for k in kids) == tile.ra_max
        assert min(k.dec_min for k in kids) == tile.dec_min
        assert max(k.dec_max for k in kids) == tile.dec_max


class TestClusterRouting:
    def test_demonstration_clusters_route_by_registry_coordinates(self):
        for cluster in DEMONSTRATION_CLUSTERS:
            expected = tile_for(cluster.center.ra, cluster.center.dec)
            assert tile_for_cluster(cluster.name) == expected

    def test_unknown_names_get_deterministic_pseudo_positions(self):
        ra1, dec1 = position_for_cluster("SYNTH-XYZ")
        ra2, dec2 = position_for_cluster("SYNTH-XYZ")
        assert (ra1, dec1) == (ra2, dec2)
        assert 0.0 <= ra1 < 360.0
        assert -90.0 <= dec1 <= 90.0
        # distinct names land in distinct places (overwhelmingly)
        assert position_for_cluster("SYNTH-ABC") != (ra1, dec1)

    def test_pseudo_positions_are_roughly_uniform_on_the_sphere(self):
        # asin correction: the |dec| > 60 deg caps hold ~13.4% of the sphere's
        # area; a naive uniform-dec draw would put ~33% of names there.
        names = [f"LOAD-{i:04d}" for i in range(400)]
        decs = [position_for_cluster(n)[1] for n in names]
        polar = sum(1 for d in decs if abs(d) > 60.0) / len(decs)
        expected = 1.0 - math.sin(math.radians(60.0))  # ~0.134
        assert polar < 2.5 * expected

    def test_every_cluster_routes_to_exactly_one_tile(self):
        tiles = {t.tile_id: t for t in tiles_at_level(DEFAULT_LEVEL)}
        for name in ["A3526", "SYNTH-1", "B99", "x"]:
            tile = tile_for_cluster(name)
            assert tile.tile_id in tiles
            ra, dec = position_for_cluster(name)
            assert _contains(tiles[tile.tile_id], ra, dec)


class TestSkyTileValue:
    def test_frozen_and_hashable(self):
        tile = tile_for(10.0, 10.0)
        assert isinstance(tile, SkyTile)
        assert tile in {tile}
        with pytest.raises(AttributeError):
            tile.tile_id = "t0:other"  # type: ignore[misc]
