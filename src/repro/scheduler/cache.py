"""The RLS-backed cross-submission result cache.

Pegasus prunes individual files out of an abstract workflow when the RLS
already maps them; the workload manager applies the same idea one level up:
a whole submission whose derivation signature is already mapped in the RLS
is answered from storage — zero compute nodes, zero transfers, straight to
the merged VOTable.

The cache *is* an RLS client: each entry is a logical file
``<signature>.vot`` stored at the cache site and registered like any other
replica, so the mapping survives as long as the Grid does and other
virtual-data machinery (provenance, retrieval, reduction) sees it too.
"""

from __future__ import annotations

from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite


class RlsResultCache:
    """signature -> merged-VOTable bytes, via the RLS + one storage site."""

    def __init__(
        self,
        rls: ReplicaLocationService,
        site: StorageSite,
        site_name: str,
    ) -> None:
        self.rls = rls
        self.site = site
        self.site_name = site_name
        # The cache site must be known to the RLS before any register();
        # on a live Grid it already is, on a bare RLS we introduce it.
        if site_name not in rls.sites():
            rls.add_site(site_name)

    @staticmethod
    def lfn_for(signature: str) -> str:
        return f"{signature}.vot"

    def lookup(self, signature: str) -> bytes | None:
        """The cached product, or ``None`` on a miss.

        Resolution is RLS-directed: any retrievable replica of the
        signature's logical file answers, not just the one this cache
        wrote — mappings registered by earlier service lifetimes (or other
        tenants) are reused as-is.
        """
        lfn = self.lfn_for(signature)
        for replica in self.rls.lookup(lfn):
            if replica.site == self.site_name and self.site.exists(replica.pfn):
                return self.site.get(replica.pfn)
        return None

    def store(self, signature: str, content: bytes) -> str:
        """Materialise + register the product; returns its logical name.

        Idempotent: re-storing an identical signature overwrites the same
        PFN and re-registers the same mapping (the RLS de-duplicates).
        """
        lfn = self.lfn_for(signature)
        pfn = self.site.pfn_for(lfn)
        self.site.put(pfn, content)
        self.rls.register(lfn, pfn, self.site_name)
        return lfn


def environment_cache(env: "object") -> RlsResultCache:
    """The result cache of a :class:`~repro.portal.demo.DemoEnvironment`:
    its own RLS and its compute service's cache site (``nvo-storage``),
    where the service already caches the images it fetched."""
    site = env.compute_service.cache_site
    return RlsResultCache(env.vds.rls, env.vds.sites[site], site)


def private_cache() -> RlsResultCache:
    """A manager's own in-memory cache: a private RLS and storage site."""
    return RlsResultCache(ReplicaLocationService(), StorageSite("results"), "results")
