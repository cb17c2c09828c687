"""Consistent-hash ring: tiles -> shards with bounded remapping.

Each shard is hashed onto a 64-bit ring at ``replicas`` virtual points; a
tile belongs to the shard owning the first point clockwise of the tile's
own hash.  The two properties the fleet depends on (and the test suite
asserts quantitatively):

* **balance** — with enough virtual points per shard, tile counts stay
  within a small factor of the mean (the canonical 64-tile/4-shard layout
  must keep max/mean skew under 1.5x);
* **bounded remapping** — adding or removing one shard moves only the
  tiles whose clockwise successor changed: about ``1/N`` of them, never
  the wholesale reshuffle a modulo placement would cause.  Remapping is
  what makes worker join/leave (and crash rebalance) cheap: the moved
  tiles' completed derivations are still findable through the shared
  signature store, so even relocated work can be answered from cache.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Sequence

#: Virtual points per shard.  256 keeps the canonical layouts well inside
#: the balance gate while the ring stays tiny (a few KiB per shard).
DEFAULT_REPLICAS = 256


def _hash64(key: str) -> int:
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


class ConsistentHashRing:
    """Stable key -> node placement with minimal movement on membership change."""

    def __init__(
        self, nodes: Iterable[str] = (), replicas: int = DEFAULT_REPLICAS
    ) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.replicas = replicas
        self._nodes: set[str] = set()
        self._points: list[int] = []  # sorted virtual-point hashes
        self._owners: list[str] = []  # owner of each point, same order
        for node in nodes:
            self.add_node(node)

    # -- membership ----------------------------------------------------------
    def add_node(self, node: str) -> None:
        if not node:
            raise ValueError("ring nodes need a name")
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for i in range(self.replicas):
            point = _hash64(f"{node}#{i}")
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, node)

    def remove_node(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != node
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    # -- placement -------------------------------------------------------------
    def node_for(self, key: str) -> str:
        """The shard owning ``key`` (raises on an empty ring)."""
        if not self._points:
            raise LookupError("ring has no nodes")
        index = bisect.bisect(self._points, _hash64(key))
        if index == len(self._points):
            index = 0  # wrap: first point clockwise past the top
        return self._owners[index]

    def assignments(self, keys: Sequence[str]) -> dict[str, list[str]]:
        """node -> keys it owns (every node present, even when empty)."""
        placed: dict[str, list[str]] = {node: [] for node in self.nodes()}
        for key in keys:
            placed[self.node_for(key)].append(key)
        return placed

    def skew(self, keys: Sequence[str]) -> float:
        """max/mean key-count skew across nodes (1.0 = perfectly even)."""
        if not self._nodes or not keys:
            return 1.0
        counts = [len(ks) for ks in self.assignments(keys).values()]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0
