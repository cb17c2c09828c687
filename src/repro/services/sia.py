"""Simple Image Access services: synthetic optical and X-ray archives.

Each archive serves a cluster field as a set of survey *tiles* (SIA returns
one metadata record per overlapping image; DSS-style plate archives return
many).  ``query`` gives VOTable metadata with access URLs, ``fetch``
renders the actual FITS bytes — one HTTP round-trip per image, which is
exactly the SIA inefficiency the paper measured.
"""

from __future__ import annotations

import urllib.parse
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro import telemetry
from repro.core.errors import ServiceError
from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.io import write_fits_bytes
from repro.fits.wcs import TanWCS
from repro.catalog.coords import ConeIndex, angular_separation_deg
from repro.services.faulting import mangle_payload, pre_call_fault, truncate_table
from repro.services.protocol import SIARequest
from repro.services.transport import CostMeter, TransportModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector
from repro.sky.cluster import ClusterModel
from repro.sky.xray import beta_model
from repro.utils.rng import derive_rng
from repro.votable.model import Field, VOTable

#: Survey tiles are small 2003-era postage stamps: 64x64 float32.
TILE_SIZE = 64
TILE_SCALE_DEG = 0.004  # ~14 arcsec/pixel: coarse context imagery

SIA_FIELDS = (
    Field("title", "char", ucd="meta.title"),
    Field("ra", "double", unit="deg", ucd="pos.eq.ra"),
    Field("dec", "double", unit="deg", ucd="pos.eq.dec"),
    Field("naxis", "int", ucd="meta.number"),
    Field("scale", "double", unit="deg/pix"),
    Field("format", "char"),
    Field("url", "char", ucd="meta.ref.url"),
    Field("size_bytes", "long"),
)

#: (cluster, tile number, RA, Dec, scale) per tile; tile centres by cluster;
#: an index over the centres.
_TileGrid = tuple[
    list[tuple[str, int, float, float, float]], dict[str, list[tuple[float, float]]], ConeIndex
]


def _tile_fits_bytes() -> int:
    """Serialized size of one tile FITS (header block + padded data)."""
    data = np.zeros((TILE_SIZE, TILE_SIZE), dtype=np.float32)
    return len(write_fits_bytes(ImageHDU(data)))


class SIAService(ABC):
    """Base synthetic image archive."""

    #: archive identifier used in URLs and FITS headers
    survey: str = "SYNTH"

    #: fault-stream prefix: queries draw from ``{prefix}-query``, fetches
    #: from ``{prefix}-fetch``.  X-ray archives override this so a chaos
    #: profile can take them down independently of the optical survey.
    fault_stream: str = "sia"

    def __init__(
        self,
        clusters: Sequence[ClusterModel],
        tiles_per_cluster: dict[str, int] | int = 8,
        meter: CostMeter | None = None,
        transport: TransportModel | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.clusters = {c.name: c for c in clusters}
        if isinstance(tiles_per_cluster, int):
            self.tiles_per_cluster = {name: tiles_per_cluster for name in self.clusters}
        else:
            self.tiles_per_cluster = dict(tiles_per_cluster)
        self.meter = meter
        self.transport = transport if transport is not None else TransportModel()
        self.faults = faults
        self.base_url = f"http://{self.survey.lower()}.synth/sia"
        self._tile_bytes = _tile_fits_bytes()
        self._grid: _TileGrid | None = None

    # -- tile geometry -----------------------------------------------------------
    def _tile_span(self, cluster: ClusterModel) -> float:
        """Angular size of one tile, chosen so the whole grid fits inside a
        standard cluster-field query (SIZE = 2.2 x tidal radius)."""
        n = self.tiles_per_cluster.get(cluster.name, 0)
        if n <= 1:
            return TILE_SIZE * TILE_SCALE_DEG
        rings = int(np.ceil((np.sqrt(n) - 1) / 2.0))
        # Corner tiles of ring R sit at R * span * sqrt(2) from the centre;
        # keep even those inside the standard query half-size.
        return 0.95 * 1.1 * cluster.tidal_radius_deg / (max(rings, 1) * np.sqrt(2.0))

    def _tile_scale(self, cluster: ClusterModel) -> float:
        """Degrees per pixel of this cluster's tiles."""
        return self._tile_span(cluster) / TILE_SIZE

    def _tile_centers(self, cluster: ClusterModel) -> list[tuple[float, float]]:
        """Deterministic tile grid spiralling out from the cluster centre."""
        n = self.tiles_per_cluster.get(cluster.name, 0)
        tile_span = self._tile_span(cluster)
        centers: list[tuple[float, float]] = []
        ring = 0
        while len(centers) < n:
            if ring == 0:
                candidates = [(0, 0)]
            else:
                candidates = []
                for i in range(-ring, ring + 1):
                    for j in (-ring, ring):
                        candidates.append((i, j))
                for j in range(-ring + 1, ring):
                    for i in (-ring, ring):
                        candidates.append((i, j))
                candidates.sort()
            for i, j in candidates:
                if len(centers) >= n:
                    break
                pos = cluster.center.offset(i * tile_span, j * tile_span)
                centers.append((pos.ra, pos.dec))
            ring += 1
        return centers

    def query(self, request: SIARequest) -> VOTable:
        """All tiles whose centre lies within the requested box (+margin)."""
        with telemetry.trace_span("service.sia_query", survey=self.survey) as span:
            action = "ok"
            if self.faults is not None:
                stream = f"{self.fault_stream}-query"
                action = pre_call_fault(
                    self.faults,
                    stream,
                    meter=self.meter,
                    transport=self.transport,
                    category="sia-query",
                )
            table = self._query_impl(request)
            if action in ("malformed", "partial"):
                table = truncate_table(f"{self.fault_stream}-query", table, action)
            span.set(records=len(table))
        telemetry.count("service_requests_total", kind="sia-query", survey=self.survey)
        return table

    def _tile_index(self) -> _TileGrid:
        """Every tile's (cluster, number, centre, scale), positionally indexed.

        A tile matches when its centre lies within the query half-size
        plus its own span, so the index carries the span as a per-tile
        pad.  Built on the first call and never rebuilt; published by one
        assignment so threads sharing the archive never see half of it.
        """
        grid = self._grid
        if grid is None:
            tiles: list[tuple[str, int, float, float, float]] = []
            centers: dict[str, list[tuple[float, float]]] = {}
            spans: list[float] = []
            for cluster in self.clusters.values():
                span, scale = self._tile_span(cluster), self._tile_scale(cluster)
                centers[cluster.name] = self._tile_centers(cluster)
                for k, (ra, dec) in enumerate(centers[cluster.name]):
                    tiles.append((cluster.name, k, ra, dec, scale))
                    spans.append(span)
            index = ConeIndex([t[2] for t in tiles], [t[3] for t in tiles], spans)
            grid = self._grid = (tiles, centers, index)
        return grid

    def _query_impl(self, request: SIARequest) -> VOTable:
        tiles, _, index = self._tile_index()
        table = VOTable(SIA_FIELDS, name=f"{self.survey}-images")
        for i in index.query(request.ra, request.dec, request.size / 2.0):
            name, k, ra, dec, scale = tiles[i]
            url = f"{self.base_url}/image?" + urllib.parse.urlencode({"cluster": name, "tile": k})
            table.append(
                [
                    f"{self.survey} {name} tile {k}",
                    ra,
                    dec,
                    TILE_SIZE,
                    scale,
                    "image/fits",
                    url,
                    self._tile_bytes,
                ]
            )
        if self.meter is not None:
            self.meter.charge("sia-query", self.transport.sia_query.time(256 * len(table)))
        return table

    def fetch(self, url: str) -> bytes:
        """Download one image by its access URL (one HTTP GET per image)."""
        with telemetry.trace_span("service.sia_fetch", survey=self.survey) as span:
            action = "ok"
            if self.faults is not None:
                stream = f"{self.fault_stream}-fetch"
                action = pre_call_fault(
                    self.faults,
                    stream,
                    meter=self.meter,
                    transport=self.transport,
                    category="sia-download",
                )
            payload = self._fetch_impl(url)
            if action in ("malformed", "partial"):
                payload = mangle_payload(f"{self.fault_stream}-fetch", payload)
            span.set(bytes=len(payload))
        telemetry.count("service_requests_total", kind="sia-fetch", survey=self.survey)
        return payload

    def _fetch_impl(self, url: str) -> bytes:
        params = {k: v[0] for k, v in urllib.parse.parse_qs(urllib.parse.urlparse(url).query).items()}
        name = params.get("cluster")
        if name not in self.clusters:
            raise ServiceError(f"{self.survey}: unknown cluster in URL {url!r}")
        tile = int(params.get("tile", "-1"))
        centers = self._tile_index()[1][name]
        if not 0 <= tile < len(centers):
            raise ServiceError(f"{self.survey}: tile {tile} out of range for {name}")
        payload = write_fits_bytes(self._render_tile(self.clusters[name], tile, centers[tile]))
        if self.meter is not None:
            self.meter.charge("sia-download", self.transport.sia_download.time(len(payload)))
        return payload

    def _tile_header(self, cluster: ClusterModel, tile: int, center: tuple[float, float]) -> Header:
        header = Header()
        header.set("OBJECT", cluster.name, "cluster field")
        header.set("SURVEY", self.survey)
        header.set("TILE", tile)
        header.set("BUNIT", "counts")
        scale = self._tile_scale(cluster)
        TanWCS(
            crval1=center[0],
            crval2=center[1],
            crpix1=(TILE_SIZE + 1) / 2.0,
            crpix2=(TILE_SIZE + 1) / 2.0,
            cdelt1=-scale,
            cdelt2=scale,
        ).to_header(header)
        return header

    @abstractmethod
    def _render_tile(self, cluster: ClusterModel, tile: int, center: tuple[float, float]) -> ImageHDU:
        """Render the pixel content of one tile."""


class OpticalImageArchive(SIAService):
    """DSS-like optical survey: sky noise plus smooth cluster light."""

    survey = "SYNTH-DSS"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.base_url = f"http://{self.survey.lower()}.synth/sia"

    def _render_tile(self, cluster: ClusterModel, tile: int, center: tuple[float, float]) -> ImageHDU:
        rng = derive_rng(cluster.seed, "tile", self.survey, cluster.name, tile)
        data = rng.normal(5.0, 1.0, (TILE_SIZE, TILE_SIZE))
        # Diffuse intracluster light falling off with distance from centre.
        dist = angular_separation_deg(cluster.center.ra, cluster.center.dec, center[0], center[1])
        data += 3.0 * np.exp(-float(dist) / max(cluster.core_radius_deg * 4, 1e-6))
        return ImageHDU(data.astype(np.float32), self._tile_header(cluster, tile, center))


class XrayImageArchive(SIAService):
    """ROSAT/Chandra-like X-ray survey: beta-model gas emission tiles."""

    survey = "SYNTH-ROSAT"
    fault_stream = "xray"

    def __init__(self, *args, survey: str = "SYNTH-ROSAT", **kwargs) -> None:
        self.survey = survey
        super().__init__(*args, **kwargs)
        self.base_url = f"http://{self.survey.lower()}.synth/sia"

    def _render_tile(self, cluster: ClusterModel, tile: int, center: tuple[float, float]) -> ImageHDU:
        rng = derive_rng(cluster.seed, "tile", self.survey, cluster.name, tile)
        yy, xx = np.indices((TILE_SIZE, TILE_SIZE), dtype=float)
        # Offset of each pixel from the cluster centre, via the tile WCS.
        header = self._tile_header(cluster, tile, center)
        wcs = TanWCS.from_header(header)
        ras, decs = wcs.pixel_to_sky(xx + 1.0, yy + 1.0)
        r_deg = angular_separation_deg(cluster.center.ra, cluster.center.dec, ras, decs)
        expected = beta_model(r_deg, 40.0, cluster.core_radius_deg * 1.5) + 0.3
        data = rng.poisson(expected).astype(np.float32)
        return ImageHDU(data, header)
