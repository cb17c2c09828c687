"""Seeded inputs: generated clusters and the five workloads' job lists.

The program under test receives only what this module generates: the
server child is handed the cluster models (as JSON) and the load generator
the job lists.  Same ``--seed`` ⇒ same cluster names, positions, member
counts and therefore the same result bytes.

``DEFAULT_SEED`` is the development seed; ``HELD_OUT_SEED`` is reserved for
confirming a claim on inputs nobody tuned against (choosing-metrics §6.3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.catalog.coords import SkyPosition
from repro.sky.cluster import ClusterModel

DEFAULT_SEED = 2003
HELD_OUT_SEED = 1977

#: Clusters come in blocks, by default [m, m-d, m, m+d].  Half of all jobs
#: sit exactly at the median richness ``m``, so the turnaround median always
#: compares like-sized jobs whichever jobs the deadline cuts off, and every
#: block carries the same number of galaxies, so throughput does not depend
#: on where a run stops.  ``d`` steps through the half range.
BLOCK = (0, -1, 0, 1)


@dataclass(frozen=True)
class Shape:
    """One workload's traffic shape (sizes are for ``--seconds 15``, the
    contract's ``run_seconds``, and scale with ``--seconds``)."""

    name: str
    clients: int
    #: blocks of clusters the server is built with
    blocks: int
    #: median member count and the half range around it
    richness: int
    half_range: int
    #: "cold" = every cluster once on an empty RLS; "warm" = primed, then
    #: resubmitted under fresh options (signature miss, RLS short-circuit);
    #: "hit" = primed, then resubmitted identically (scheduler cache hit)
    temperature: str
    #: passes over the cluster list in the timed phase
    rounds: int = 1
    #: one block's member counts, as multiples of ``d`` around ``richness``
    block: tuple[int, ...] = BLOCK


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: Sized so that at the speed of the commit that added the benchmark the
#: list is finished in roughly 0.75 × ``--seconds`` (``rich-cluster``, six
#: jobs of 1.5-3 s, nearer 0.85); the deadline only cuts a slower system short.  Fixed work (not fixed time) keeps memory,
#: turnaround and throughput comparable between two commits of different
#: speed.  Cluster count is part of the workload: the portal issues one SIA
#: cutout query per galaxy and the cutout service scans every cluster it
#: knows per query, so job cost grows with the number of clusters served.
SHAPES: dict[str, Shape] = {
    s.name: s
    for s in (
        Shape("cold-serial", clients=1, blocks=8, richness=80, half_range=40, temperature="cold"),
        Shape("cold-concurrent", clients=2, blocks=8, richness=80, half_range=40, temperature="cold"),
        # six jobs of 1.5-3 s, not eight: blocks of three keep two of them on the median
        Shape("rich-cluster", clients=1, blocks=2, richness=430, half_range=130, temperature="cold", block=(-1, 0, 1)),
        Shape("warm-resubmit", clients=2, blocks=2, richness=80, half_range=40, temperature="warm", rounds=38),
        Shape("cache-hit", clients=2, blocks=2, richness=80, half_range=40, temperature="hit", rounds=700),
    )
}

#: Smoke runs (``--smoke``, the self-tests) use two tiny clusters per workload.
SMOKE_MEMBERS = 10

#: ``--seconds`` the shapes are sized for.
SIZED_FOR_SECONDS = 15.0


@dataclass(frozen=True)
class Job:
    cluster: int  # index into Workload.clusters
    options: dict[str, Any] | None = None


@dataclass
class Workload:
    shape: Shape
    seed: int
    clusters: list[ClusterModel]
    #: per client: clusters to submit once, untimed, before the timed phase
    prime: list[list[int]] = field(default_factory=list)
    #: per client: the timed closed-loop job list
    jobs: list[list[Job]] = field(default_factory=list)


def member_counts(shape: Shape, blocks: int, rng: np.random.Generator) -> list[int]:
    steps = [round(shape.half_range * (i + 1) / blocks) for i in range(blocks)]
    counts: list[int] = []
    for i in rng.permutation(blocks):
        counts += [shape.richness + k * steps[int(i)] for k in shape.block]
    return counts


def make_cluster(seed: int, index: int, total: int, members: int, rng: np.random.Generator) -> ClusterModel:
    """One generated cluster, radii scaled as ``sky/registry_data._build``.

    Clusters are placed one per right-ascension cell, away from the cell
    edges and the poles, so no cone search ever reaches a neighbour.
    """
    cell = 360.0 / total
    ra = (index + float(rng.uniform(0.3, 0.7))) * cell
    dec = math.degrees(math.asin(float(rng.uniform(-0.7, 0.7))))
    return ClusterModel(
        name=f"B{seed}-{index}",
        center=SkyPosition(ra, dec),
        redshift=float(rng.uniform(0.02, 0.3)),
        n_galaxies=members,
        core_radius_deg=0.03 + 0.00008 * members,
        tidal_radius_deg=0.35 + 0.0006 * members,
        seed=seed,
        context_image_count=48,
    )


def make_workload(name: str, seed: int, seconds: float, smoke: bool = False) -> Workload:
    shape = SHAPES[name]
    rng = np.random.default_rng([seed, sorted(SHAPES).index(name)])
    if smoke:
        counts = [SMOKE_MEMBERS] * 2
        rounds = 1 if shape.temperature == "cold" else 2
    else:
        blocks = max(shape.clients, round(shape.blocks * seconds / SIZED_FOR_SECONDS))
        counts = member_counts(shape, blocks, rng)
        rounds = max(1, round(shape.rounds * seconds / SIZED_FOR_SECONDS))
    clusters = [make_cluster(seed, i, len(counts), n, rng) for i, n in enumerate(counts)]
    # Whole blocks are dealt to clients in turn, so each client's list keeps
    # the block pattern.
    per_block = len(shape.block) if not smoke else 1
    owned: list[list[int]] = [[] for _ in range(shape.clients)]
    for i in range(len(clusters)):
        owned[(i // per_block) % shape.clients].append(i)
    owned = [mine for mine in owned if mine]
    workload = Workload(shape, seed, clusters)
    for client, mine in enumerate(owned):
        if shape.temperature == "cold":
            workload.prime.append([])
            workload.jobs.append([Job(i) for i in mine])
        elif shape.temperature == "warm":
            workload.prime.append(mine)
            workload.jobs.append(
                [Job(i, {"rep": f"{client}.{k}"}) for k in range(rounds) for i in mine]
            )
        else:
            workload.prime.append(mine)
            workload.jobs.append([Job(i) for _ in range(rounds) for i in mine])
    return workload


def cluster_to_dict(cluster: ClusterModel) -> dict[str, Any]:
    return {
        "name": cluster.name,
        "ra": cluster.center.ra,
        "dec": cluster.center.dec,
        "redshift": cluster.redshift,
        "n_galaxies": cluster.n_galaxies,
        "core_radius_deg": cluster.core_radius_deg,
        "tidal_radius_deg": cluster.tidal_radius_deg,
        "seed": cluster.seed,
        "context_image_count": cluster.context_image_count,
    }


def cluster_from_dict(data: dict[str, Any]) -> ClusterModel:
    data = dict(data)
    center = SkyPosition(data.pop("ra"), data.pop("dec"))
    return ClusterModel(center=center, **data)
