"""The cross-submission result cache, and where a manager keeps it.

Pegasus prunes individual files out of an abstract workflow when the RLS
already maps them; the workload manager applies the same idea one level up:
a whole submission whose derivation signature is already materialised is
answered from storage — zero compute nodes, zero transfers, straight to
the merged VOTable.  Both caches key an entry by the logical file
``<signature>.vot``:

* :class:`SignatureStore` — the durable cache of every manager that
  journals to a file: a directory beside the journal, so a restarted
  manager (or a fleet's surviving shards) answers what an earlier process
  computed;
* :class:`RlsResultCache` — the in-memory cache of a manager whose journal
  is in memory: the entry is stored at a cache site and registered in an
  RLS like any other replica.

:func:`result_cache` is the one rule that picks between them.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from pathlib import Path
from typing import TYPE_CHECKING

from repro import telemetry
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite

if TYPE_CHECKING:
    from repro.scheduler.journal import JobJournal

#: The directory, beside a file journal, that holds its manager's results.
STORE_DIR = "sigstore"


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


class SignatureStore:
    """Filesystem-backed signature -> (owner, bytes) cache.

    An entry is two files: ``<signature>.vot`` (the merged VOTable bytes)
    and ``<signature>.json`` (owner + size), each written to a temp file
    moved into place by ``os.replace``, bytes before meta.  A reader sees
    either nothing or a complete entry, never a torn one, and a writer
    killed mid-store leaves at most an orphaned temp file.  Two store
    objects on one directory — a fleet's shards, or a restarted server
    and its predecessor — see each other's entries through the
    filesystem alone.

    ``owner`` is the shard this store writes for (``""``: no shard).  A
    shard's hit on an entry another shard stored is a **cross-shard
    hit**, counted in :attr:`cross_shard_hits` and
    ``shard_cross_cache_hits_total``; a store with no owner reads only
    the bytes.
    """

    lfn_for = staticmethod(RlsResultCache.lfn_for)

    def __init__(self, root: str | os.PathLike[str], owner: str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.owner = owner
        self.cross_shard_hits = 0

    def lookup(self, signature: str) -> bytes | None:
        try:
            content = (self.root / self.lfn_for(signature)).read_bytes()
        except OSError:
            return None
        if self.owner:
            try:
                meta = json.loads((self.root / f"{signature}.json").read_text("utf-8"))
            except (OSError, json.JSONDecodeError):
                meta = {}
            owner = meta.get("shard")
            if isinstance(owner, str) and owner and owner != self.owner:
                self.cross_shard_hits += 1
                telemetry.count(
                    "shard_cross_cache_hits_total", shard=self.owner, owner=owner
                )
        return content

    def store(self, signature: str, content: bytes) -> str:
        """Publish one derivation; idempotent, last writer wins.

        The result bytes land before the meta entry, so a reader that sees
        an owner can always read the bytes it points at.
        """
        lfn = self.lfn_for(signature)
        self._write_atomic(self.root / lfn, content)
        meta = json.dumps(
            {"shard": self.owner, "size": len(content)}, sort_keys=True
        ).encode("utf-8")
        self._write_atomic(self.root / f"{signature}.json", meta)
        return lfn

    def _write_atomic(self, path: Path, content: bytes) -> None:
        # Created as ``open()`` creates a file (0666 less the umask), so an
        # entry is as readable as the journal beside the store.
        tmp = path.with_name(f".tmp-{uuid.uuid4().hex}{path.suffix}")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:  # pragma: no cover - disk-full etc.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise


def result_cache(
    journal: "JobJournal", owner: str, env: "object | None"
) -> RlsResultCache | SignatureStore:
    """Where a manager keeps its results, decided by where it journals.

    A manager that journals to ``<dir>/<name>.jsonl`` keeps them in
    ``SignatureStore(<dir>/sigstore, owner)``, so they outlive the process
    as its journal does (a fleet's shards, journaling to
    ``data_dir/journal-sN.jsonl``, share ``data_dir/sigstore``).  A manager
    whose journal is in memory keeps them in memory: the
    :func:`environment_cache` of ``env`` when it serves one, else in a
    private RLS and storage site of its own.
    """
    if journal.path is not None:
        return SignatureStore(journal.path.parent / STORE_DIR, owner)
    if env is not None:
        return environment_cache(env)
    return RlsResultCache(ReplicaLocationService(), StorageSite("results"), "results")


def environment_cache(env: "object") -> RlsResultCache:
    """The result cache of a :class:`~repro.portal.demo.DemoEnvironment`:
    its own RLS and its compute service's cache site (``nvo-storage``),
    where the service already caches the images it fetched."""
    site = env.compute_service.cache_site
    return RlsResultCache(env.vds.rls, env.vds.sites[site], site)
