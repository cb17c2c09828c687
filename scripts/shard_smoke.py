#!/usr/bin/env python
"""CI smoke test: SIGKILL a shard worker mid-campaign, recover byte-identical.

Boots a 4-shard worker fleet, drives a 20-job / 4-user campaign of real
portal jobs at it (one small generated cluster per job), SIGKILLs the
busiest worker while its jobs are in flight, and asserts the full
recovery contract:

* every job — including the relocated ones, polled by their *original*
  ids — reaches COMPLETED with output byte-identical to a fault-free
  in-process run of the same job;
* the post-replay global fingerprint (the sorted union of every shard
  journal, dead one included) is stable across recomputations;
* at least one job was actually relocated (the kill landed mid-flight,
  not on an idle shard);
* teardown leaks zero worker processes.

This is `repro chaos --profile worker-crash` reduced to its CI
essentials, driven through the fleet API so a failure points at the
layer that broke.

Usage::

    PYTHONPATH=src python scripts/shard_smoke.py [--jobs 20] [--users 4] [--shards 4]

Exits nonzero (with a diagnostic) on any violation.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from repro.catalog.coords import SkyPosition
from repro.portal.demo import build_demo_environment
from repro.scheduler.job import JobSpec, JobState
from repro.scheduler.runner import PortalJobRunner
from repro.shard.fleet import ShardFleet
from repro.shard.tiling import position_for_cluster
from repro.sky.cluster import ClusterModel

#: Members per generated cluster: enough that a job outlasts the submit burst.
MEMBERS = 12


def fail(message: str) -> None:
    print(f"shard smoke FAILED: {message}", file=sys.stderr)
    raise SystemExit(1)


def run(root: Path, jobs: int, users: int, shards: int) -> None:
    models = tuple(
        ClusterModel(
            name=name, center=SkyPosition(*position_for_cluster(name)), redshift=0.05,
            n_galaxies=MEMBERS, core_radius_deg=0.04, seed=7, context_image_count=4,
        )
        for name in (f"SM{i:02d}" for i in range(jobs))
    )
    clusters = [model.name for model in models]
    tenants = [f"user{i % users}" for i in range(jobs)]

    # the fault-free truth: every job is a deterministic function of its
    # cluster, so the baseline is one in-process portal run of each
    runner = PortalJobRunner(build_demo_environment(clusters=list(models)))
    baseline = {
        cluster: runner.run(JobSpec.create("baseline", cluster), None).result_bytes
        for cluster in clusters
    }

    fleet = ShardFleet(root / "fleet", shards=shards, clusters=models, max_workers=1)
    with fleet:
        records = [
            fleet.submit(tenant, cluster)
            for tenant, cluster in zip(tenants, clusters)
        ]

        by_shard: dict[str, int] = {}
        for record in records:
            by_shard[record.shard] = by_shard.get(record.shard, 0) + 1
        victim = max(sorted(by_shard), key=lambda s: by_shard[s])
        fleet.kill_worker(victim)
        print(f"killed {victim} with {by_shard[victim]} jobs placed on it")

        for record in records:
            done = fleet.wait(record.job_id, timeout=120.0)
            if done.state is not JobState.COMPLETED:
                fail(f"{record.job_id} ended {done.state.value}: {done.error}")
            content = fleet.result_bytes(record.job_id)
            if content != baseline[record.spec.cluster]:
                fail(f"{record.job_id} output differs from the baseline")

        health = fleet.shard_health()
        if health["dead"] != [victim]:
            fail(f"expected dead == [{victim!r}], got {health['dead']}")
        relocated = health["relocated_jobs"]
        if relocated < 1:
            fail("the kill relocated nothing — it did not land mid-flight")

        first = fleet.global_fingerprint()
        second = fleet.global_fingerprint()
        if first != second:
            fail("global fingerprint changed between two replays")
        if not first:
            fail("global fingerprint is empty")

    leaked = fleet.leaked_processes()
    if leaked:
        fail(f"leaked worker processes after close: {leaked}")

    print(
        f"shard smoke OK: {len(records)} jobs byte-identical across "
        f"{shards} shards ({users} users), {victim} killed mid-flight, "
        f"{relocated} relocated, fingerprint stable over "
        f"{len(first)} journal entries, zero leaks"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--users", type=int, default=4)
    parser.add_argument("--shards", type=int, default=4)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="shard-smoke-") as tmp:
        run(Path(tmp), jobs=args.jobs, users=args.users, shards=args.shards)
    return 0


if __name__ == "__main__":
    sys.exit(main())
