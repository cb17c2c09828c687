"""The NVO resource registry and service failover.

§5: "Most obvious is the need for a registry of data and service
resources.  This would allow users to discover the relevant data and tools
necessary for the study ... Obviously, providing this flexibility would
require a higher level of fault tolerance and recovery."

Two pieces, both of which the paper identifies as missing from the
prototype:

* :class:`ResourceRegistry` — service *resources* (not just data centers):
  each record declares a capability (``cone-search`` / ``sia`` / ``cutout``
  / ``table-ops`` / ``compute``), a waveband, sky coverage, and the live
  service object behind it.  Queries discover resources by capability,
  waveband and position — what the hard-coded portal could not do.
* :class:`FailoverConeSearch` / :class:`FailoverSIA` — the "higher level of
  fault tolerance": equivalent discovered services tried in order, with
  failures counted and the working replica promoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.catalog.coords import angular_separation_deg
from repro.core.errors import ServiceError
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.votable.model import VOTable

CAPABILITIES = ("cone-search", "sia", "cutout", "table-ops", "compute")


@dataclass(frozen=True)
class SkyCoverage:
    """A cone on the sky a resource serves; ``all_sky`` covers everything."""

    ra: float = 0.0
    dec: float = 0.0
    radius_deg: float = 180.0

    @property
    def all_sky(self) -> bool:
        return self.radius_deg >= 180.0

    def contains(self, ra: float, dec: float) -> bool:
        if self.all_sky:
            return True
        return float(angular_separation_deg(self.ra, self.dec, ra, dec)) <= self.radius_deg


@dataclass(frozen=True)
class ResourceRecord:
    """One registered service resource."""

    identifier: str  # ivo://-style identifier
    title: str
    capability: str
    service: Any  # the live service object
    waveband: str = "optical"
    coverage: SkyCoverage = field(default_factory=SkyCoverage)
    publisher: str = ""

    def __post_init__(self) -> None:
        if self.capability not in CAPABILITIES:
            raise ServiceError(
                f"unknown capability {self.capability!r}; expected one of {CAPABILITIES}"
            )
        if not self.identifier.startswith("ivo://"):
            raise ServiceError(f"resource identifier must be ivo://-style: {self.identifier!r}")


class ResourceRegistry:
    """Registration + discovery of NVO service resources."""

    def __init__(self) -> None:
        self._records: dict[str, ResourceRecord] = {}

    def register(self, record: ResourceRecord) -> None:
        if record.identifier in self._records:
            raise ServiceError(f"resource {record.identifier!r} already registered")
        self._records[record.identifier] = record

    def resource(self, identifier: str) -> ResourceRecord:
        if identifier not in self._records:
            raise ServiceError(f"no registered resource {identifier!r}")
        return self._records[identifier]

    def discover(
        self,
        capability: str | None = None,
        waveband: str | None = None,
        ra: float | None = None,
        dec: float | None = None,
    ) -> list[ResourceRecord]:
        """Find resources by capability, waveband and/or sky position."""
        out = []
        for record in self._records.values():
            if capability is not None and record.capability != capability:
                continue
            if waveband is not None and record.waveband != waveband:
                continue
            if ra is not None and dec is not None and not record.coverage.contains(ra, dec):
                continue
            out.append(record)
        return out

    def __len__(self) -> int:
        return len(self._records)


class _FailoverBase:
    """Shared try-in-order / promote-on-success machinery."""

    def __init__(self, records: Iterable[ResourceRecord]) -> None:
        self._records = list(records)
        if not self._records:
            raise ServiceError("failover requires at least one resource")
        self.failures: dict[str, int] = {}
        self.calls = 0

    def _attempt(self, fn_name: str, *args: Any) -> Any:
        self.calls += 1
        last_error: Exception | None = None
        for i, record in enumerate(self._records):
            try:
                result = getattr(record.service, fn_name)(*args)
            except ServiceError as exc:
                self.failures[record.identifier] = self.failures.get(record.identifier, 0) + 1
                last_error = exc
                continue
            if i > 0:
                # promote the working replica so later calls hit it first
                self._records.insert(0, self._records.pop(i))
            return result
        raise ServiceError(
            f"all {len(self._records)} registered services failed; last error: {last_error}"
        )

    @property
    def active_identifier(self) -> str:
        return self._records[0].identifier


class FailoverConeSearch(_FailoverBase):
    """A cone-search facade over equivalent discovered resources."""

    def search(self, request: ConeSearchRequest) -> VOTable:
        return self._attempt("search", request)


class FailoverSIA(_FailoverBase):
    """An SIA facade over equivalent discovered resources."""

    def query(self, request: SIARequest) -> VOTable:
        return self._attempt("query", request)
