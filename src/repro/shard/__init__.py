"""``repro.shard`` — spatial sharding for the workload manager.

The paper distributes its replica index by sky region; this package is
that idea applied to the whole serving stack: jobs are routed by where
their cluster sits on the sky, and the queue, journal and replica index
are *partitioned* rather than merely locked.

* :mod:`~repro.shard.tiling` — hierarchical RA/Dec quad-tree tiles with
  stable ids; every cluster maps to exactly one tile;
* :mod:`~repro.shard.ring` — a consistent-hash ring placing tiles on
  shards with bounded remapping when shards join or leave;
* :mod:`~repro.shard.worker` — the per-shard child process: a private
  journal + RLS partition behind an ordinary workload manager, whose
  result cache is the fleet's shared
  :class:`~repro.scheduler.cache.SignatureStore` (cross-shard reuse);
* :mod:`~repro.shard.fleet` — the coordinator: tile routing, aggregate
  ``queue``/``health``/``metrics``, crash-replay rebalance on worker
  death, and the single-manager facade the serving tier speaks.

Quick start::

    from repro.shard import ShardFleet

    with ShardFleet("state/fleet", shards=4) as fleet:
        record = fleet.submit("alice", "A3526")
        done = fleet.wait(record.job_id, timeout=60)
        votable = fleet.result_bytes(done.job_id)

Topology, rebalance and the fleet-wide recovery invariant are documented
in ``docs/sharding.md``.
"""

from __future__ import annotations

from repro.shard.fleet import ShardFleet
from repro.shard.ring import ConsistentHashRing
from repro.shard.tiling import (
    DEFAULT_LEVEL,
    SkyTile,
    tile_for,
    tile_for_cluster,
    tiles_at_level,
)
from repro.shard.worker import WorkerConfig, worker_main

__all__ = [
    "ConsistentHashRing",
    "DEFAULT_LEVEL",
    "ShardFleet",
    "SkyTile",
    "WorkerConfig",
    "tile_for",
    "tile_for_cluster",
    "tiles_at_level",
    "worker_main",
]
