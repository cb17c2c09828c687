"""Execution-site selection policies.

The paper's Concrete Workflow Generator "picks a random location to execute
from among the returned locations" — :class:`RandomSiteSelector`.  The
round-robin and least-loaded policies are the ablation alternatives the
site-selection benchmark compares (the paper's related-work section notes
other systems schedule by load; Pegasus left this to future work).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict

import numpy as np

from repro import telemetry
from repro.core.errors import PlanningError
from repro.resilience.breaker import SiteHealthTracker
from repro.utils.rng import DEMO_SEED, derive_rng


class SiteSelector(ABC):
    """Chooses an execution site for a job among TC-provided candidates."""

    @abstractmethod
    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        """Return one of ``candidate_sites``; raise PlanningError if empty."""

    def _require(self, job_id: str, candidate_sites: list[str]) -> None:
        if not candidate_sites:
            raise PlanningError(f"no site provides the transformation for job {job_id!r}")


class RandomSiteSelector(SiteSelector):
    """Uniform random choice — the paper's policy."""

    def __init__(self, seed: int = DEMO_SEED) -> None:
        self._rng: np.random.Generator = derive_rng(seed, "site-selector")

    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        self._require(job_id, candidate_sites)
        return candidate_sites[int(self._rng.integers(0, len(candidate_sites)))]


class RoundRobinSiteSelector(SiteSelector):
    """Cycle through candidates per transformation-independent counter."""

    def __init__(self) -> None:
        self._counter = 0

    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        self._require(job_id, candidate_sites)
        site = sorted(candidate_sites)[self._counter % len(candidate_sites)]
        self._counter += 1
        return site


class LeastLoadedSiteSelector(SiteSelector):
    """Greedy least-assigned-jobs, weighted by per-site capacity.

    Capacity is in slots; the selector tracks its own assignments, so a
    site with twice the slots receives roughly twice the jobs.
    """

    def __init__(self, capacities: dict[str, int]) -> None:
        if any(c <= 0 for c in capacities.values()):
            raise ValueError(f"capacities must be positive: {capacities}")
        self._capacities = dict(capacities)
        self._assigned: dict[str, int] = defaultdict(int)

    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        self._require(job_id, candidate_sites)
        known = [s for s in candidate_sites if s in self._capacities]
        if not known:
            raise PlanningError(
                f"no capacity information for any candidate site of job {job_id!r}: "
                f"{candidate_sites}"
            )
        site = min(sorted(known), key=lambda s: self._assigned[s] / self._capacities[s])
        self._assigned[site] += 1
        return site


class HealthAwareSiteSelector(SiteSelector):
    """Decorator: filter candidates through the site-health ledger.

    Wraps any base policy; candidates whose circuit breaker is OPEN are
    removed *before* the base policy chooses, so a replan after an outage
    routes around the sick site without the base policy ever seeing it.
    If every candidate is blacklisted the breaker must not deadlock the
    plan: the full candidate list is used unfiltered (a HALF_OPEN probe
    is preferable to an unplannable workflow) and the fallback is
    counted.
    """

    def __init__(self, base: SiteSelector, health: SiteHealthTracker) -> None:
        self.base = base
        self.health = health

    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        self._require(job_id, candidate_sites)
        healthy = self.health.filter_available(candidate_sites)
        if healthy:
            if len(healthy) < len(candidate_sites):
                telemetry.count(
                    "resilience_sites_blacklisted_total",
                    len(candidate_sites) - len(healthy),
                )
            return self.base.choose(job_id, healthy)
        telemetry.count("resilience_blacklist_fallbacks_total")
        return self.base.choose(job_id, candidate_sites)


def make_site_selector(
    policy: str,
    seed: int = DEMO_SEED,
    capacities: dict[str, int] | None = None,
) -> SiteSelector:
    """Factory keyed by :attr:`PlannerOptions.site_selection`."""
    if policy == "random":
        return RandomSiteSelector(seed)
    if policy == "round-robin":
        return RoundRobinSiteSelector()
    if policy == "least-loaded":
        if not capacities:
            raise PlanningError("least-loaded site selection requires site capacities")
        return LeastLoadedSiteSelector(capacities)
    raise PlanningError(f"unknown site-selection policy {policy!r}")
