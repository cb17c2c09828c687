"""Shared helpers for the fleet tests: small generated clusters.

A spawned shard worker cannot be handed a test double, so fleet tests run
the real portal runner on clusters small enough that a job takes tens of
milliseconds.  Each cluster is centred on its name's routing position, so
the fleet places it exactly where the name hashes.
"""

from __future__ import annotations

from functools import lru_cache

from repro.catalog.coords import SkyPosition
from repro.portal.demo import build_demo_environment
from repro.scheduler.job import JobSpec
from repro.scheduler.runner import PortalJobRunner
from repro.shard.tiling import position_for_cluster
from repro.sky.cluster import ClusterModel

#: Members per generated cluster: a job is ~30 ms of real portal work.
MEMBERS = 6

#: Cluster names of the fleet tests' jobs.
CLUSTERS = tuple(f"FT{i:02d}" for i in range(8))


def routed_cluster(name: str) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(*position_for_cluster(name)),
        redshift=0.05,
        n_galaxies=MEMBERS,
        core_radius_deg=0.04,
        seed=7,
        context_image_count=4,
    )


#: The generated clusters every fleet test's workers serve.
MODELS = tuple(routed_cluster(name) for name in CLUSTERS)


@lru_cache(maxsize=None)
def _reference_runner() -> PortalJobRunner:
    return PortalJobRunner(build_demo_environment(clusters=list(MODELS)))


def expected_bytes(cluster: str, options: dict | None = None) -> bytes:
    """What any shard must answer: an in-process portal run of the same job."""
    spec = JobSpec.create("anyone", cluster, options)
    return _reference_runner().run(spec, None).result_bytes
