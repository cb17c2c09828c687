"""The data-center registry: Table 1 of the paper.

"Table 1 outlines which datasets were involved in the demonstration" —
five data centers, their collections, and which of the two standard
interfaces each implements.  The *general registry of image and catalog
services* the paper calls missing (§4.2, §5) — discovery by capability,
waveband and position — is :mod:`repro.services.nvoregistry`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DataCenter:
    """One registry entry: a data center's collection and its interfaces."""

    center: str
    collection: str
    interfaces: tuple[str, ...]
    service_key: str = ""  # key into the portal's service wiring

    def __post_init__(self) -> None:
        for iface in self.interfaces:
            if iface not in ("SIA", "Cone Search"):
                raise ValueError(f"unknown interface {iface!r}")


class DataCenterRegistry:
    """Discoverable collection of :class:`DataCenter` records."""

    def __init__(self, centers: list[DataCenter] | None = None) -> None:
        self._centers: list[DataCenter] = list(centers or [])

    def all(self) -> list[DataCenter]:
        return list(self._centers)

    def table_rows(self) -> list[tuple[str, str, str]]:
        """Rows of Table 1: (data center, collection, interfaces used)."""
        return [(c.center, c.collection, ", ".join(c.interfaces)) for c in self._centers]


def default_registry() -> DataCenterRegistry:
    """Table 1, verbatim, with service keys into the synthetic back-ends."""
    return DataCenterRegistry(
        [
            DataCenter(
                "Chandra X-ray Center",
                "Chandra Data Archive",
                ("SIA",),
                service_key="chandra",
            ),
            DataCenter(
                "NASA High-Energy Astrophysical Science Archive (HEASARC)",
                "ROSAT X-ray data",
                ("SIA",),
                service_key="rosat",
            ),
            DataCenter(
                "NASA Infrared Processing and Analysis Center (IPAC)",
                "NASA Extragalactic Database (NED)",
                ("Cone Search",),
                service_key="ned",
            ),
            DataCenter(
                "Canadian Astrophysical Data Center (CADC)",
                "Canadian Network for Cosmology (CNOC) Survey",
                ("SIA", "Cone Search"),
                service_key="cnoc",
            ),
            DataCenter(
                "Multimission Archive at Space Telescope (MAST)",
                "Digitized Sky Survey (DSS)",
                ("SIA", "Cone Search"),
                service_key="dss",
            ),
        ]
    )
