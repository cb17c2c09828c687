"""Storage sites: named byte stores with GridFTP-style URLs."""

from __future__ import annotations

import threading

from repro.core.errors import TransportError


class StorageSite:
    """A storage system at one Grid site.

    Files are addressed by physical file name (PFN).  The site tracks byte
    content (for real execution) or declared sizes (for simulation); both
    modes share the same bookkeeping so the §5 transfer accounting is
    identical either way.
    """

    def __init__(self, name: str, base_url: str | None = None) -> None:
        if not name:
            raise ValueError("storage site requires a name")
        self.name = name
        self.base_url = base_url if base_url is not None else f"gsiftp://{name}.grid"
        self._content: dict[str, bytes] = {}
        self._sizes: dict[str, int] = {}
        self._lock = threading.Lock()

    def pfn_for(self, lfn: str) -> str:
        """The canonical PFN this site would assign to a logical file."""
        return f"{self.base_url}/data/{lfn}"

    # -- writes ---------------------------------------------------------------
    def put(self, pfn: str, content: bytes) -> None:
        """Store real bytes under ``pfn``."""
        with self._lock:
            self._content[pfn] = content
            self._sizes[pfn] = len(content)

    def put_size(self, pfn: str, size: int) -> None:
        """Declare a file of ``size`` bytes without content (simulation)."""
        if size < 0:
            raise ValueError(f"negative file size: {size}")
        with self._lock:
            self._sizes[pfn] = size
            self._content.pop(pfn, None)

    def delete(self, pfn: str) -> None:
        with self._lock:
            if pfn not in self._sizes:
                raise TransportError(f"{self.name}: no such file {pfn!r}")
            self._sizes.pop(pfn)
            self._content.pop(pfn, None)

    # -- reads ------------------------------------------------------------------
    def exists(self, pfn: str) -> bool:
        with self._lock:
            return pfn in self._sizes

    def get(self, pfn: str) -> bytes:
        """Fetch real bytes; raises for size-only (simulated) files."""
        with self._lock:
            if pfn not in self._sizes:
                raise TransportError(f"{self.name}: no such file {pfn!r}")
            if pfn not in self._content:
                raise TransportError(
                    f"{self.name}: file {pfn!r} is simulation-only (size declared, no content)"
                )
            return self._content[pfn]

    def size(self, pfn: str) -> int:
        with self._lock:
            if pfn not in self._sizes:
                raise TransportError(f"{self.name}: no such file {pfn!r}")
            return self._sizes[pfn]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"StorageSite({self.name!r}, files={len(self._sizes)})"
