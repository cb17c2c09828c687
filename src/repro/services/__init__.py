"""NVO data services: Cone Search, Simple Image Access, cutouts, registry.

§3.1: "Two standard interfaces provided by the data resources of the NVO
project allowed us to access data from the various astronomy catalogs in a
uniform way" — the Cone Search protocol for catalog records and the Simple
Image Access (SIA) protocol for images, both "based on HTTP Get
operations".  This package implements the protocols (request objects with
URL round-trips), synthetic archive services behind them, the Table 1 data
-center registry, and the transport cost model that reproduces the paper's
observed SIA bottleneck ("an image query and download for each galaxy must
be done separately").
"""

from repro.services.conesearch import (
    ConeSearchService,
    SyntheticPhotometryCatalog,
    SyntheticRedshiftCatalog,
)
from repro.services.cutout import CutoutSIAService
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.nvoregistry import (
    FailoverConeSearch,
    FailoverSIA,
    ResourceRecord,
    ResourceRegistry,
    SkyCoverage,
)
from repro.services.registry import DataCenter, DataCenterRegistry, default_registry
from repro.services.sia import OpticalImageArchive, SIAService, XrayImageArchive
from repro.services.transport import CostMeter, TransportModel

__all__ = [
    "ConeSearchRequest",
    "SIARequest",
    "ConeSearchService",
    "SyntheticPhotometryCatalog",
    "SyntheticRedshiftCatalog",
    "SIAService",
    "OpticalImageArchive",
    "XrayImageArchive",
    "CutoutSIAService",
    "ResourceRegistry",
    "ResourceRecord",
    "SkyCoverage",
    "FailoverConeSearch",
    "FailoverSIA",
    "DataCenter",
    "DataCenterRegistry",
    "default_registry",
    "CostMeter",
    "TransportModel",
]
