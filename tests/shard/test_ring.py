"""Consistent-hash ring: the ISSUE's quantitative balance + remap gates."""

from __future__ import annotations

import pytest

from repro.shard.ring import ConsistentHashRing
from repro.shard.tiling import DEFAULT_LEVEL, tiles_at_level

TILE_IDS = [t.tile_id for t in tiles_at_level(DEFAULT_LEVEL)]  # 64 tiles


def _placement(ring: ConsistentHashRing) -> dict[str, str]:
    return {tile: ring.node_for(tile) for tile in TILE_IDS}


class TestBalance:
    def test_canonical_64_tiles_4_shards_skew_under_1_5(self):
        # The acceptance gate: max/mean tile-count skew < 1.5x.
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        assert ring.skew(TILE_IDS) < 1.5

    @pytest.mark.parametrize("shards", [2, 3, 4, 8])
    def test_no_shard_starves(self, shards):
        ring = ConsistentHashRing([f"s{i}" for i in range(shards)])
        counts = {n: len(ks) for n, ks in ring.assignments(TILE_IDS).items()}
        assert len(counts) == shards
        assert all(count > 0 for count in counts.values())
        assert sum(counts.values()) == len(TILE_IDS)

    def test_skew_of_trivial_inputs_is_one(self):
        assert ConsistentHashRing(["s0"]).skew(TILE_IDS) == 1.0
        assert ConsistentHashRing(["s0", "s1"]).skew([]) == 1.0


class TestBoundedRemapping:
    def test_join_moves_less_than_2_over_n(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        before = _placement(ring)
        ring.add_node("s4")
        after = _placement(ring)
        moved = [t for t in TILE_IDS if before[t] != after[t]]
        # ideal movement on join is 1/N of keys (N = new size); gate at 2/N
        assert len(moved) / len(TILE_IDS) < 2.0 / len(ring.nodes())
        # every moved tile moved *to* the joiner, never between survivors
        assert all(after[t] == "s4" for t in moved)

    def test_leave_moves_less_than_2_over_n(self):
        names = [f"s{i}" for i in range(4)]
        ring = ConsistentHashRing(names)
        before = _placement(ring)
        ring.remove_node("s2")
        after = _placement(ring)
        moved = [t for t in TILE_IDS if before[t] != after[t]]
        assert len(moved) / len(TILE_IDS) < 2.0 / len(names)
        # exactly the departed shard's tiles moved, nothing else
        assert set(moved) == {t for t in TILE_IDS if before[t] == "s2"}

    def test_rejoin_restores_the_exact_placement(self):
        ring = ConsistentHashRing([f"s{i}" for i in range(4)])
        before = _placement(ring)
        ring.remove_node("s1")
        ring.add_node("s1")
        assert _placement(ring) == before

    def test_placement_is_deterministic_across_ring_instances(self):
        a = ConsistentHashRing(["s0", "s1", "s2"])
        b = ConsistentHashRing(["s2", "s0", "s1"])  # insertion order irrelevant
        assert _placement(a) == _placement(b)


class TestMembership:
    def test_duplicate_and_empty_names_rejected(self):
        ring = ConsistentHashRing(["s0"])
        with pytest.raises(ValueError):
            ring.add_node("s0")
        with pytest.raises(ValueError):
            ring.add_node("")
        with pytest.raises(ValueError):
            ConsistentHashRing(replicas=0)

    def test_remove_unknown_raises(self):
        with pytest.raises(KeyError):
            ConsistentHashRing(["s0"]).remove_node("ghost")

    def test_empty_ring_cannot_place(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().node_for("t3:000")

    def test_len_contains_nodes(self):
        ring = ConsistentHashRing(["s1", "s0"])
        assert len(ring.nodes()) == 2
        assert "s0" in ring and "s1" in ring and "s2" not in ring
        assert ring.nodes() == ["s0", "s1"]

    def test_assignments_lists_every_node_even_when_empty(self):
        ring = ConsistentHashRing(["s0", "s1"])
        placed = ring.assignments(["t3:000"])
        assert set(placed) == {"s0", "s1"}
        assert sum(len(v) for v in placed.values()) == 1
