"""Cone Search services over the synthetic sky.

Two catalog services with *different schemas*, standing in for the paper's
two catalog data centers (NED at IPAC and the CNOC survey at CADC, Table
1): a photometry catalog and a redshift catalog.  The portal must query
both and join them by position — the integration step §4.2 describes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro import telemetry
from repro.catalog.coords import ConeIndex
from repro.services.faulting import pre_call_fault, truncate_table
from repro.services.protocol import ConeSearchRequest
from repro.services.transport import CostMeter, TransportModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector
from repro.sky.cluster import ClusterModel, GalaxyRecord
from repro.utils.rng import derive_rng
from repro.votable.model import Field, VOTable


class ConeSearchService(ABC):
    """Base cone-search service: position-indexed record retrieval."""

    def __init__(
        self,
        clusters: Sequence[ClusterModel],
        meter: CostMeter | None = None,
        transport: TransportModel | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.clusters = list(clusters)
        self.meter = meter
        self.transport = transport if transport is not None else TransportModel()
        self.faults = faults
        self._index: tuple[list[tuple[ClusterModel, GalaxyRecord]], ConeIndex] | None = None

    def _member_index(self) -> tuple[list[tuple[ClusterModel, GalaxyRecord]], ConeIndex]:
        """Every served member, positionally indexed; built on the first
        search, never rebuilt, and published by one assignment so threads
        sharing the service never see half of it."""
        index = self._index
        if index is None:
            members = [
                (cluster, member)
                for cluster in self.clusters
                for member in cluster.generate_members()
            ]
            positions = ConeIndex([m.ra for _, m in members], [m.dec for _, m in members])
            index = self._index = (members, positions)
        return index

    def search(self, request: ConeSearchRequest) -> VOTable:
        """Run the cone selection and charge the query to the meter."""
        with telemetry.trace_span("service.cone_search", service=type(self).__name__) as span:
            action = "ok"
            if self.faults is not None:
                action = pre_call_fault(
                    self.faults,
                    "cone-query",
                    meter=self.meter,
                    transport=self.transport,
                    category="cone-query",
                )
            table = self._search_impl(request)
            if action in ("malformed", "partial"):
                table = truncate_table("cone-query", table, action)
            span.set(records=len(table))
        telemetry.count(
            "service_requests_total", kind="cone-search", service=type(self).__name__
        )
        return table

    def _search_impl(self, request: ConeSearchRequest) -> VOTable:
        members, index = self._member_index()
        selected = [members[i] for i in index.query(request.ra, request.dec, request.sr)]
        table = self._build_table(selected)
        if self.meter is not None:
            payload = 256 * len(table)  # VOTable row weight estimate
            self.meter.charge("cone-query", self.transport.sia_query.time(payload))
        return table

    @abstractmethod
    def _build_table(self, members: list[tuple[ClusterModel, GalaxyRecord]]) -> VOTable:
        """Render selected members with this catalog's schema."""


class SyntheticPhotometryCatalog(ConeSearchService):
    """NED-like photometry records: positions, magnitudes, colors."""

    FIELDS = (
        Field("id", "char", ucd="meta.id"),
        Field("ra", "double", unit="deg", ucd="pos.eq.ra"),
        Field("dec", "double", unit="deg", ucd="pos.eq.dec"),
        Field("mag_r", "double", unit="mag", ucd="phot.mag"),
        Field("color_gr", "double", unit="mag", ucd="phot.color"),
    )

    def _build_table(self, members: list[tuple[ClusterModel, GalaxyRecord]]) -> VOTable:
        table = VOTable(self.FIELDS, name="photometry")
        for cluster, m in members:
            rng = derive_rng(cluster.seed, "phot", m.galaxy_id)
            # Early types sit on the red sequence; late types are bluer.
            red = m.morph.value in ("E", "S0")
            color = rng.normal(0.75 if red else 0.35, 0.08)
            table.append([m.galaxy_id, m.ra, m.dec, m.magnitude, float(color)])
        return table


class SyntheticRedshiftCatalog(ConeSearchService):
    """CNOC-like spectroscopy records: positions, redshifts, velocities."""

    FIELDS = (
        Field("id", "char", ucd="meta.id"),
        Field("ra", "double", unit="deg", ucd="pos.eq.ra"),
        Field("dec", "double", unit="deg", ucd="pos.eq.dec"),
        Field("redshift", "double", ucd="src.redshift"),
        Field("velocity", "double", unit="km/s", ucd="phys.veloc"),
    )

    def _build_table(self, members: list[tuple[ClusterModel, GalaxyRecord]]) -> VOTable:
        table = VOTable(self.FIELDS, name="redshifts")
        c_km_s = 299_792.458
        for cluster, m in members:
            velocity = (m.redshift - cluster.redshift) * c_km_s
            table.append([m.galaxy_id, m.ra, m.dec, m.redshift, float(velocity)])
        return table
