"""The image cutout service: per-galaxy images over SIA.

§3.1 notes the SIA interface "is general enough to provide access to both
simple static images from an image archive ... and custom cutout images
from an image cutout service".  This service is the latter kind: queried at
a galaxy position it returns a reference to a cutout "extracted from a
larger one but which contains only that galaxy", and fetching that URL
renders the FITS cutout on demand.
"""

from __future__ import annotations

import urllib.parse
from typing import TYPE_CHECKING, Sequence

from repro import telemetry
from repro.catalog.coords import ConeIndex
from repro.core.errors import ServiceError
from repro.fits.io import write_fits_bytes
from repro.services.faulting import mangle_payload, pre_call_fault, truncate_table
from repro.services.protocol import SIARequest
from repro.services.sia import SIA_FIELDS
from repro.services.transport import CostMeter, TransportModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector
from repro.sky.cluster import ClusterModel, GalaxyRecord
from repro.sky.imaging import BAND, CUTOUT_SIZE, PIXEL_SCALE_ARCSEC, CutoutFactory
from repro.votable.model import VOTable


class CutoutSIAService:
    """SIA-flavoured cutout service over the synthetic sky."""

    def __init__(
        self,
        clusters: Sequence[ClusterModel],
        meter: CostMeter | None = None,
        transport: TransportModel | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.clusters = {c.name: c for c in clusters}
        self.meter = meter
        self.transport = transport if transport is not None else TransportModel()
        self.faults = faults
        self.base_url = "http://cutout.synth/sia"
        self._factories: dict[tuple[str, str], CutoutFactory] = {}
        self._index: tuple[list[tuple[str, GalaxyRecord]], ConeIndex] | None = None

    def _member_index(self) -> tuple[list[tuple[str, GalaxyRecord]], ConeIndex]:
        """(cluster name, member) for every served galaxy, positionally indexed.

        Built on the first query and never rebuilt.  Worker threads share
        the service, so the pair is published by one assignment: a racing
        query builds an identical copy, never sees half of one.
        """
        index = self._index
        if index is None:
            members = [
                (name, member)
                for name, cluster in self.clusters.items()
                for member in cluster.generate_members()
            ]
            positions = ConeIndex([m.ra for _, m in members], [m.dec for _, m in members])
            index = self._index = (members, positions)
        return index

    def _factory(self, cluster_name: str, band: str) -> CutoutFactory:
        key = (cluster_name, band)
        if key not in self._factories:
            if cluster_name not in self.clusters:
                raise ServiceError(f"cutout service knows no cluster {cluster_name!r}")
            self._factories[key] = CutoutFactory(self.clusters[cluster_name], band=band)
        return self._factories[key]

    def url_for(self, cluster_name: str, galaxy_id: str) -> str:
        query = urllib.parse.urlencode({"cluster": cluster_name, "id": galaxy_id, "band": BAND})
        return f"{self.base_url}/cutout?{query}"

    # -- SIA interface --------------------------------------------------------
    def _query_rows(self, request: SIARequest) -> list[list]:
        """Metadata rows for every known galaxy inside the request box."""
        members, index = self._member_index()
        rows: list[list] = []
        for i in index.query(request.ra, request.dec, request.size / 2.0):
            name, m = members[i]
            rows.append(
                [
                    m.galaxy_id,
                    m.ra,
                    m.dec,
                    CUTOUT_SIZE,
                    PIXEL_SCALE_ARCSEC / 3600.0,
                    "image/fits",
                    self.url_for(name, m.galaxy_id),
                    self.estimated_size(),
                ]
            )
        return rows

    def query(self, request: SIARequest) -> VOTable:
        """Cutout references for every known galaxy inside the request box.

        One record per matching galaxy; the paper's portal issues one such
        (tight) query per catalog row, which is the protocol inefficiency
        the campaign measures.
        """
        with telemetry.trace_span("service.cutout_query") as span:
            action = "ok"
            if self.faults is not None:
                action = pre_call_fault(
                    self.faults,
                    "cutout-query",
                    meter=self.meter,
                    transport=self.transport,
                    category="sia-query",
                )
            table = VOTable(SIA_FIELDS, name="cutouts")
            for row in self._query_rows(request):
                table.append(row)
            if self.meter is not None:
                self.meter.charge("sia-query", self.transport.sia_query.time(256 * len(table)))
            if action in ("malformed", "partial"):
                table = truncate_table("cutout-query", table, action)
            span.set(records=len(table))
        telemetry.count("service_requests_total", kind="cutout-query")
        return table

    def fetch(self, url: str) -> bytes:
        """Render and download one cutout (one HTTP GET per galaxy)."""
        return self._fetch(url, self.meter)

    def _fetch(self, url: str, meter: CostMeter | None) -> bytes:
        """One download, charged to ``meter`` (``None``: the caller pays
        for it some other way, e.g. as part of a batch)."""
        with telemetry.trace_span("service.cutout_fetch") as span:
            action = "ok"
            if self.faults is not None:
                action = pre_call_fault(
                    self.faults,
                    "cutout-fetch",
                    meter=meter,
                    transport=self.transport,
                    category="sia-download",
                )
            payload = self._fetch_impl(url)
            if meter is not None:
                meter.charge("sia-download", self.transport.sia_download.time(len(payload)))
            if action in ("malformed", "partial"):
                payload = mangle_payload("cutout-fetch", payload)
            span.set(bytes=len(payload))
        telemetry.count("service_requests_total", kind="cutout-fetch")
        return payload

    def _fetch_impl(self, url: str) -> bytes:
        params = {k: v[0] for k, v in urllib.parse.parse_qs(urllib.parse.urlparse(url).query).items()}
        cluster_name = params.get("cluster", "")
        galaxy_id = params.get("id", "")
        band = params.get("band", BAND)
        factory = self._factory(cluster_name, band)
        try:
            hdu = factory.render_cutout(galaxy_id)
        except KeyError as exc:
            raise ServiceError(str(exc)) from exc
        return write_fits_bytes(hdu)

    # -- the batched extension of §4.2 -------------------------------------------
    def query_batch(self, requests: list[SIARequest]) -> VOTable:
        """The hypothetical batch interface: "This could be sped up
        tremendously if one could query for all images at once."

        Semantically equivalent to issuing every request separately, but
        charged as a *single* query round-trip.
        """
        if not requests:
            raise ServiceError("batch query requires at least one request")
        with telemetry.trace_span("service.cutout_query_batch", requests=len(requests)) as span:
            merged = VOTable(SIA_FIELDS, name="cutouts")
            for request in requests:
                for row in self._query_rows(request):
                    merged.append(row)
            if self.meter is not None:
                self.meter.charge(
                    "sia-batch-query", self.transport.sia_query.time(256 * len(merged))
                )
            span.set(records=len(merged))
        telemetry.count("service_requests_total", kind="cutout-query-batch")
        return merged

    def fetch_batch(self, urls: list[str]) -> list[bytes]:
        """Bulk download: one request latency for the whole set (the cached
        GridFTP-style path of §4.3.1(3))."""
        if not urls:
            raise ServiceError("batch fetch requires at least one URL")
        payloads = [self._fetch(url, None) for url in urls]
        if self.meter is not None:
            total = sum(len(p) for p in payloads)
            self.meter.charge("sia-batch-download", self.transport.gridftp.time(total))
        return payloads

    def estimated_size(self) -> int:
        """Nominal cutout FITS size in bytes (for SIA metadata records)."""
        # header (1 block) + data rounded to 2880: exact for 64x64 float32.
        data_bytes = CUTOUT_SIZE * CUTOUT_SIZE * 4
        padded = ((data_bytes + 2879) // 2880) * 2880
        return 2880 + padded
