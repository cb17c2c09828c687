"""The cross-shard signature directory: one cache hit stops compute everywhere.

Each shard's workload manager keeps its private journal and its
environment's one RLS — but derivation signatures are global:
"some other user may have already materialized part of the entire required
dataset" does not stop being true at a shard boundary.  The
:class:`SignatureStore` is the fleet's shared signature -> (owner shard,
result bytes) directory on a common filesystem:

* an entry is two files — ``<signature>.vot`` (the merged VOTable bytes)
  and ``<signature>.json`` (owner shard + size) — written atomically via
  temp-file + ``os.replace``, so a concurrent reader sees either nothing
  or a complete entry, never a torn one;
* any shard's :class:`FleetResultCache` consults the store before running
  a job, so a signature computed on shard A short-circuits the same
  derivation submitted to shard B (counted as a *cross-shard* hit when the
  recorded owner differs);
* after a worker death the store doubles as the survivors' memory: the
  dead shard's completed derivations are still answerable, and relocated
  jobs resume as cache hits instead of recomputes.

SIGKILL-safety falls out of the atomic rename: a worker killed mid-store
leaves at most an orphaned temp file, never a half-entry.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from pathlib import Path

from repro import telemetry
from repro.scheduler.cache import RlsResultCache


class SignatureStore:
    """Filesystem-backed signature -> (owner, bytes) directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ---------------------------------------------------------------
    def _result_path(self, signature: str) -> Path:
        return self.root / RlsResultCache.lfn_for(signature)

    def _meta_path(self, signature: str) -> Path:
        return self.root / f"{signature}.json"

    # -- queries ----------------------------------------------------------------
    def owner(self, signature: str) -> str | None:
        """The shard that materialised ``signature`` (``None`` if unknown)."""
        try:
            meta = json.loads(self._meta_path(signature).read_text("utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        owner = meta.get("shard")
        return owner if isinstance(owner, str) else None

    def lookup(self, signature: str) -> bytes | None:
        try:
            return self._result_path(signature).read_bytes()
        except OSError:
            return None

    # -- writes -----------------------------------------------------------------
    def _write_atomic(self, path: Path, content: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-", suffix=path.suffix)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:  # pragma: no cover - disk-full etc.
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    def store(self, signature: str, content: bytes, shard: str = "") -> str:
        """Publish one derivation; idempotent, last writer wins.

        The result bytes land before the meta entry, so a reader that sees
        an owner can always read the bytes it points at.
        """
        self._write_atomic(self._result_path(signature), content)
        meta = json.dumps(
            {"shard": shard, "size": len(content)}, sort_keys=True
        ).encode("utf-8")
        self._write_atomic(self._meta_path(signature), meta)
        return RlsResultCache.lfn_for(signature)


class FleetResultCache:
    """The shard-side cache ladder: the shard's own RLS, then the shared store.

    ``local`` is the cache a single-manager ``serve-http`` runs
    (:func:`~repro.scheduler.cache.environment_cache`): the shard
    environment's one RLS and its ``nvo-storage`` cache site, so a shard
    adds only the :class:`SignatureStore` tier.  Duck-compatible with
    :class:`~repro.scheduler.cache.RlsResultCache`
    (``lookup``/``store``/``lfn_for``), so a per-shard
    :class:`~repro.scheduler.service.WorkloadManager` plugs it in
    unchanged.  ``store`` publishes to both tiers; ``lookup`` prefers the
    local tier (no shared-filesystem read on the common case) and falls
    back to the directory, counting a **cross-shard hit** whenever the
    entry's recorded owner is some other shard.
    """

    def __init__(
        self,
        store: SignatureStore,
        shard: str,
        local: RlsResultCache,
    ) -> None:
        self.store_dir = store
        self.shard = shard
        self.local = local
        self.shared_hits = 0
        self.cross_shard_hits = 0

    lfn_for = staticmethod(RlsResultCache.lfn_for)

    def lookup(self, signature: str) -> bytes | None:
        content = self.local.lookup(signature)
        if content is not None:
            return content
        content = self.store_dir.lookup(signature)
        if content is None:
            return None
        self.shared_hits += 1
        owner = self.store_dir.owner(signature)
        if owner and owner != self.shard:
            self.cross_shard_hits += 1
            telemetry.count(
                "shard_cross_cache_hits_total", shard=self.shard, owner=owner
            )
        # Pull the entry into the local tier so the next hit is local.
        try:
            self.local.store(signature, content)
        except Exception:  # noqa: BLE001 - the shared copy already answered
            pass
        return content

    def store(self, signature: str, content: bytes) -> str:
        self.store_dir.store(signature, content, shard=self.shard)
        return self.local.store(signature, content)
