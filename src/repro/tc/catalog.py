"""Transformation Catalog: logical transformation -> per-site executables."""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TCEntry:
    """One installed executable for a logical transformation.

    Attributes
    ----------
    transformation:
        Logical component name (matches :class:`AbstractJob.transformation`).
    site:
        Compute resource where the executable is installed.
    path:
        Physical path of the executable at that site.
    annotations:
        Creation/provenance metadata (compiler, version, author, ...).
    """

    transformation: str
    site: str
    path: str
    annotations: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.transformation or not self.site or not self.path:
            raise ValueError("TCEntry requires transformation, site and path")


class TransformationCatalog:
    """Queryable store of :class:`TCEntry` records.

    "Pegasus queries the catalog to determine if the components are
    available in the execution environment and to identify their
    locations."
    """

    def __init__(self) -> None:
        self._entries: dict[str, list[TCEntry]] = {}
        self._lock = threading.Lock()
        self.query_count = 0

    def add(self, entry: TCEntry) -> None:
        with self._lock:
            existing = self._entries.setdefault(entry.transformation, [])
            if any(e.site == entry.site and e.path == entry.path for e in existing):
                raise ValueError(
                    f"duplicate TC entry: {entry.transformation!r} at "
                    f"{entry.site!r}:{entry.path!r}"
                )
            existing.append(entry)

    def install(self, transformation: str, site: str, path: str, **annotations: str) -> TCEntry:
        """Convenience constructor + add."""
        entry = TCEntry(transformation, site, path, dict(annotations))
        self.add(entry)
        return entry

    def query(self, transformation: str, site: str | None = None) -> list[TCEntry]:
        """Entries for a transformation, optionally restricted to one site."""
        with self._lock:
            self.query_count += 1
            entries = list(self._entries.get(transformation, ()))
        if site is not None:
            entries = [e for e in entries if e.site == site]
        return entries

    def sites_providing(self, transformation: str) -> list[str]:
        """Sites where the transformation is installed, sorted."""
        return sorted({e.site for e in self.query(transformation)})
