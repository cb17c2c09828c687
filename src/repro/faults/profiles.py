"""Named fault profiles for the chaos CLI, CI and the test suite.

A profile is a :class:`~repro.faults.plan.FaultPlan` factory keyed by a
short name.  The three curated profiles cover the failure landscape the
paper's production ancestors reported:

``recoverable`` (the *canonical* profile — CI's recovery invariant)
    Transient service timeouts on every query stream (bounded so the
    3-attempt retry ladder always wins), a hard outage of the UWisc pool
    (absorbed by per-node retries, the circuit breaker and a
    health-aware replan), RLS lookup hiccups, and one stale RLS entry
    (the pre-seeded Fermilab cutout replica loses its bytes; absorbed by
    replica verification + re-download).  A campaign under this profile
    must produce a merged VOTable byte-identical to the fault-free run.

``degraded-archives``
    Both X-ray archives are permanently down and the photometry cone
    search returns partial responses.  Unrecoverable by design: the
    portal must degrade gracefully — quorum-annotated partial catalog,
    per-archive error annotations in the output VOTable, nonzero exit —
    instead of failing the whole session.

``grid-down``
    Every galMorph pool is hard-down.  Nothing can recover this; the
    assertion is purely about failure hygiene: jobs reach a terminal
    FAILED state with a failure summary, nothing wedges, and the
    scheduler's queue accounting stays consistent.

All profiles take the run seed so their fault schedules ride the same
``derive_rng`` label tree as everything else.
"""

from __future__ import annotations

from typing import Callable

from repro.faults.plan import (
    FaultPlan,
    RlsFaultSpec,
    ServiceFaultSpec,
    SiteFaultSpec,
)
from repro.utils.rng import DEMO_SEED

#: The profile name CI's recovery invariant is asserted against.
CANONICAL_RECOVERABLE_PROFILE = "recoverable"

#: A large attempt bound: with executor ``max_retries`` in the single
#: digits this means "down for the whole run".
HARD_OUTAGE = 99


def _recoverable(seed: int) -> FaultPlan:
    # max_faults=2 per stream with a 3-attempt retry policy makes the
    # profile recoverable *by construction*: even if both injected faults
    # land on the same logical call, the third attempt runs fault-free.
    transient_timeouts = ServiceFaultSpec(timeout_rate=0.35, max_faults=2)
    return FaultPlan(
        seed=seed,
        services={
            "cone-query": transient_timeouts,
            "sia-query": transient_timeouts,
            "xray-query": ServiceFaultSpec(error_rate=0.35, max_faults=2),
            "cutout-query": transient_timeouts,
            "cutout-fetch": ServiceFaultSpec(malformed_rate=0.35, max_faults=2),
        },
        sites={"uwisc": SiteFaultSpec(outage_attempts=HARD_OUTAGE)},
        rls=RlsFaultSpec(
            lookup_timeout_rate=0.25, max_timeouts=2, stale_lfns=(".fit",)
        ),
        recoverable=True,
    )


def _degraded_archives(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        services={
            "xray-query": ServiceFaultSpec(error_rate=1.0, permanent=True),
            "cone-query": ServiceFaultSpec(partial_rate=0.5),
        },
        recoverable=False,
    )


def _grid_down(seed: int) -> FaultPlan:
    outage = SiteFaultSpec(outage_attempts=HARD_OUTAGE)
    return FaultPlan(
        seed=seed,
        sites={"isi": outage, "uwisc": outage, "fnal": outage},
        recoverable=False,
    )


def _slow_site(seed: int) -> FaultPlan:
    # UWisc stays alive (nothing ever *fails*, so circuit breakers never
    # trip) but every compute attempt there is slowed by a deterministic
    # lognormal tail — median 4x, p95 in the tens.  The claim is that
    # latency never changes bytes, so the profile is recoverable by
    # construction; beating the tail is out of scope.  The small wall
    # unit gives local (thread-pool) runs a felt-but-bounded stall, so
    # `repro chaos --profile slow-site` runs the real executor's slow
    # path in CI time, and benchmarks/gates.py pins the simulated
    # makespan the tail produces.
    return FaultPlan(
        seed=seed,
        sites={
            "uwisc": SiteFaultSpec(
                slow_factor=4.0,
                slow_sigma=1.0,
                slow_max_factor=40.0,
                slow_wall_unit_s=0.02,
                slow_wall_cap_s=0.4,
            )
        },
        recoverable=True,
    )


def _worker_crash(seed: int) -> FaultPlan:
    # The fault is process death, not a service fault: the sharded chaos
    # harness manufactures it (SIGKILL of one shard worker mid-flight, the
    # way _make_stale_replicas manufactures the stale-RLS lie).  The plan
    # itself is clean; recoverable=True states the claim — the fleet's
    # journal-replay rebalance must land byte-identical outputs.
    return FaultPlan(seed=seed, recoverable=True)


_PROFILES: dict[str, Callable[[int], FaultPlan]] = {
    "recoverable": _recoverable,
    "degraded-archives": _degraded_archives,
    "grid-down": _grid_down,
    "slow-site": _slow_site,
    "worker-crash": _worker_crash,
}


def available_profiles() -> tuple[str, ...]:
    """Profile names, sorted, for CLI help and validation."""
    return tuple(sorted(_PROFILES))


def get_profile(name: str, seed: int = DEMO_SEED) -> FaultPlan:
    """Instantiate the named profile at ``seed``.

    Raises ``ValueError`` (listing valid names) for unknown profiles so
    the CLI can surface a helpful message.
    """
    try:
        factory = _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; available: {', '.join(available_profiles())}"
        ) from None
    return factory(seed)
