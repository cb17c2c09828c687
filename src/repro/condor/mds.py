"""Monitoring and Discovery Service (Globus MDS) — the paper's future work.

§3.2: "Currently the information about the available resources is
statically configured.  In the near future, we plan to include dynamic
information provided by Globus Monitoring and Discovery Service (MDS)."

This module supplies that dynamic layer: pools publish load snapshots into
the :class:`MonitoringService`; the :class:`MdsSiteSelector` queries it at
planning time and sends each job to the site with the most *free* capacity,
weighted by CPU speed.  The ablation benchmark compares it against the
paper's static random policy.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.core.errors import PlanningError
from repro.pegasus.site_selector import SiteSelector


@dataclass(frozen=True)
class ResourceRecord:
    """One site's published state: what MDS GRIS/GIIS would report."""

    site: str
    slots: int
    busy_slots: int
    cpu_speed: float
    timestamp: float

    @property
    def free_slots(self) -> int:
        return max(self.slots - self.busy_slots, 0)


class MonitoringService:
    """The directory service: sites publish, planners query."""

    def __init__(self) -> None:
        self._records: dict[str, ResourceRecord] = {}
        self._lock = threading.Lock()
        self.query_count = 0

    def publish(self, record: ResourceRecord) -> None:
        """A site (or the simulator on its behalf) publishes fresh state."""
        with self._lock:
            existing = self._records.get(record.site)
            if existing is not None and record.timestamp < existing.timestamp:
                return  # stale update: directory keeps the newest
            self._records[record.site] = record

    def query(self, site: str) -> ResourceRecord:
        with self._lock:
            self.query_count += 1
            if site not in self._records:
                raise KeyError(f"MDS has no record for site {site!r}")
            return self._records[site]


class MdsSiteSelector(SiteSelector):
    """Dynamic site selection driven by live MDS records.

    Jobs are distributed proportionally to each site's *free* effective
    capacity (free slots x cpu speed): the selector tracks its own pending
    assignments and always picks the site whose per-free-slot queue is
    shortest.  Sites with zero free slots are avoided entirely unless every
    candidate is saturated, in which case total capacity decides.
    """

    def __init__(self, mds: MonitoringService) -> None:
        self.mds = mds
        self._pending: dict[str, int] = {}

    def _score(self, record: ResourceRecord) -> float:
        """Prospective queue depth per usable slot if this job is assigned
        here: lower is better."""
        pending = self._pending.get(record.site, 0)
        free_capacity = record.free_slots * record.cpu_speed
        if free_capacity > 0:
            return (pending + 1) / free_capacity
        # Saturated: fall back to total capacity, heavily penalised so any
        # site with a free slot wins first.
        total_capacity = max(record.slots * record.cpu_speed, 1e-9)
        return 1e6 + (pending + 1) / total_capacity

    def choose(self, job_id: str, candidate_sites: list[str]) -> str:
        self._require(job_id, candidate_sites)
        scored: list[tuple[float, str]] = []
        for site in sorted(candidate_sites):
            try:
                record = self.mds.query(site)
            except KeyError:
                continue  # unmonitored sites cannot be chosen dynamically
            scored.append((self._score(record), site))
        if not scored:
            raise PlanningError(
                f"MDS has no records for any candidate site of job {job_id!r}: {candidate_sites}"
            )
        best = min(scored, key=lambda pair: pair[0])[1]
        self._pending[best] = self._pending.get(best, 0) + 1
        return best
