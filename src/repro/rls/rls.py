"""The two-tier Replica Location Service.

Local Replica Catalogs (one per site) hold lfn -> pfn mappings; the Replica
Location Index records which sites know a given lfn.  The facade resolves a
logical name to all its physical replicas across the Grid — the query both
Pegasus reduction ("if data products described within the AW already
exist") and the feasibility check depend on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import telemetry
from repro.core.errors import ServiceTimeoutError
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy, retry_call
from repro.utils.events import EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector


@dataclass(frozen=True)
class Replica:
    """One physical copy of a logical file."""

    lfn: str
    pfn: str
    site: str


class LocalReplicaCatalog:
    """Per-site lfn -> {pfn} catalog."""

    def __init__(self, site: str) -> None:
        self.site = site
        self._mappings: dict[str, set[str]] = {}
        self._lock = threading.Lock()

    def register(self, lfn: str, pfn: str) -> None:
        with self._lock:
            self._mappings.setdefault(lfn, set()).add(pfn)

    def unregister(self, lfn: str, pfn: str | None = None) -> None:
        with self._lock:
            if lfn not in self._mappings:
                raise KeyError(f"{self.site}: no mapping for {lfn!r}")
            if pfn is None:
                del self._mappings[lfn]
            else:
                self._mappings[lfn].discard(pfn)
                if not self._mappings[lfn]:
                    del self._mappings[lfn]

    def lookup(self, lfn: str) -> list[str]:
        with self._lock:
            return sorted(self._mappings.get(lfn, ()))

    def lfns(self) -> list[str]:
        with self._lock:
            return list(self._mappings)


class ReplicaLocationService:
    """Facade over the LRCs + index: the service Pegasus queries.

    Query statistics are tracked so the Figure 2 benchmark can show the
    planner's (3) "Logical File Names" -> (4) "Physical File Names"
    exchange actually happening.
    """

    def __init__(
        self,
        event_log: EventLog | None = None,
        faults: "FaultInjector | None" = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        self._catalogs: dict[str, LocalReplicaCatalog] = {}
        self._index: dict[str, set[str]] = {}  # lfn -> site names (the RLI)
        self._lock = threading.Lock()
        self.events = event_log if event_log is not None else EventLog()
        self.query_count = 0
        self.faults = faults
        self.retry_policy = retry_policy

    # -- fault plumbing ------------------------------------------------------
    def _guard(self) -> None:
        """Raise an injected lookup timeout (fault plans only)."""
        if self.faults.rls_lookup_times_out():
            raise ServiceTimeoutError("RLS: injected lookup timeout")

    def _with_retry(self, fn, label: str):
        """Run an index query under the shared retry policy.

        Only reached when a fault plan is installed — the fault-free path
        never pays for the wrapper.  Injected timeouts consume retry
        attempts; bounded profiles therefore always recover, unbounded
        ones propagate :class:`ServiceTimeoutError` to the planner.
        """

        def attempt():
            self._guard()
            return fn()

        def on_backoff(n: int, delay: float, exc: BaseException) -> None:
            telemetry.count("resilience_retries_total", target="rls")

        return retry_call(
            attempt, self.retry_policy, label=label, on_backoff=on_backoff
        )

    # -- site management -------------------------------------------------------
    def add_site(self, site: str) -> LocalReplicaCatalog:
        with self._lock:
            if site in self._catalogs:
                raise ValueError(f"site {site!r} already registered in the RLS")
            catalog = LocalReplicaCatalog(site)
            self._catalogs[site] = catalog
            return catalog

    def sites(self) -> list[str]:
        with self._lock:
            return list(self._catalogs)

    # -- mapping operations -------------------------------------------------------
    def register(self, lfn: str, pfn: str, site: str) -> None:
        """Publish a replica: update the site LRC and the index."""
        with self._lock:
            if site not in self._catalogs:
                raise KeyError(f"unknown site {site!r}; add_site it first")
            catalog = self._catalogs[site]
        catalog.register(lfn, pfn)
        with self._lock:
            self._index.setdefault(lfn, set()).add(site)
        telemetry.count("rls_registrations_total")

    def unregister(self, lfn: str, site: str, pfn: str | None = None) -> None:
        with self._lock:
            if site not in self._catalogs:
                raise KeyError(f"unknown site {site!r}")
            catalog = self._catalogs[site]
        catalog.unregister(lfn, pfn)
        if not catalog.lookup(lfn):
            with self._lock:
                sites = self._index.get(lfn)
                if sites:
                    sites.discard(site)
                    if not sites:
                        del self._index[lfn]

    def lookup(self, lfn: str) -> list[Replica]:
        """All replicas of ``lfn``, across all sites (index-directed)."""
        if self.faults is not None:
            return self._with_retry(lambda: self._lookup_impl(lfn), f"rls/{lfn}")
        return self._lookup_impl(lfn)

    def _lookup_impl(self, lfn: str) -> list[Replica]:
        with self._lock:
            self.query_count += 1
            sites = sorted(self._index.get(lfn, ()))
            catalogs = [self._catalogs[s] for s in sites]
        replicas = [
            Replica(lfn=lfn, pfn=pfn, site=catalog.site)
            for catalog in catalogs
            for pfn in catalog.lookup(lfn)
        ]
        telemetry.count("rls_lookup_hits_total" if replicas else "rls_lookup_misses_total")
        return replicas

    def exists(self, lfn: str) -> bool:
        if self.faults is not None:
            return self._with_retry(lambda: self._exists_impl(lfn), f"rls-exists/{lfn}")
        return self._exists_impl(lfn)

    def _exists_impl(self, lfn: str) -> bool:
        with self._lock:
            self.query_count += 1
            found = lfn in self._index
        telemetry.count("rls_lookup_hits_total" if found else "rls_lookup_misses_total")
        return found

    def lookup_many(self, lfns: list[str]) -> dict[str, list[Replica]]:
        """Bulk query, as the planner issues for a whole workflow at once."""
        return {lfn: self.lookup(lfn) for lfn in lfns}

    def invalidate_stale(self, replica: Replica) -> None:
        """Drop a mapping whose PFN turned out not to exist.

        The replica-failover paths (portal image collection, executor
        stage-in) call this when verification of a catalog entry fails:
        the stale mapping is removed so no later plan trips over it, and
        the invalidation is counted for the chaos report.
        """
        try:
            self.unregister(replica.lfn, replica.site, replica.pfn)
        except KeyError:
            return  # already gone — another worker invalidated it first
        telemetry.count("rls_stale_invalidations_total", site=replica.site)
        self.events.emit(
            0.0,
            "rls",
            "stale-replica-invalidated",
            lfn=replica.lfn,
            site=replica.site,
            pfn=replica.pfn,
        )
