#!/usr/bin/env python3
"""Service discovery and failover: the capabilities the paper asked for.

§5 of the paper lists what the prototype lacked: "a registry of data and
service resources ... allow[ing] users to discover and choose the
appropriate data resources rather than being limited to the ones that were
hard-coded into the portal", with "a higher level of fault tolerance and
recovery".  This example builds both: an NVO resource registry holding
redundant archives, capability+waveband+position discovery, and a failover
facade that survives an archive outage mid-session — then a portal whose
services are all discovered that way (``build_demo_environment(discovery=True)``).

Run:  python examples/service_discovery.py
"""

from repro.core.errors import ServiceError
from repro.portal.demo import build_demo_environment
from repro.services.conesearch import SyntheticPhotometryCatalog, SyntheticRedshiftCatalog
from repro.services.nvoregistry import (
    FailoverConeSearch,
    FailoverSIA,
    ResourceRecord,
    ResourceRegistry,
    SkyCoverage,
)
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.sia import OpticalImageArchive, XrayImageArchive
from repro.sky.registry_data import demonstration_cluster


def main() -> None:
    cluster = demonstration_cluster("A0085")
    clusters = [cluster]

    # --- populate the registry with (redundant) resources ------------------
    registry = ResourceRegistry()
    registry.register(
        ResourceRecord(
            "ivo://mast/dss", "DSS at MAST", "sia",
            OpticalImageArchive(clusters, tiles_per_cluster=9),
            waveband="optical", publisher="MAST",
        )
    )
    registry.register(
        ResourceRecord(
            "ivo://mirror/dss", "DSS mirror", "sia",
            OpticalImageArchive(clusters, tiles_per_cluster=9),
            waveband="optical", publisher="Mirror Site",
        )
    )
    registry.register(
        ResourceRecord(
            "ivo://heasarc/rosat", "ROSAT at HEASARC", "sia",
            XrayImageArchive(clusters, tiles_per_cluster=4),
            waveband="x-ray", publisher="HEASARC",
        )
    )
    registry.register(
        ResourceRecord(
            "ivo://ipac/ned", "NED at IPAC", "cone-search",
            SyntheticPhotometryCatalog(clusters),
            waveband="optical", publisher="IPAC",
        )
    )
    registry.register(
        ResourceRecord(
            "ivo://cadc/cnoc", "CNOC at CADC", "cone-search",
            SyntheticRedshiftCatalog(clusters),
            waveband="optical", publisher="CADC",
            coverage=SkyCoverage(cluster.center.ra, cluster.center.dec, 20.0),
        )
    )

    print(f"registry holds {len(registry)} resources\n")

    # --- discovery by capability / waveband / position --------------------
    print("discover: SIA services in the optical covering the target field")
    optical = registry.discover(
        capability="sia", waveband="optical",
        ra=cluster.center.ra, dec=cluster.center.dec,
    )
    for record in optical:
        print(f"  {record.identifier:<22s} {record.title} ({record.publisher})")

    print("\ndiscover: x-ray imaging")
    for record in registry.discover(capability="sia", waveband="x-ray"):
        print(f"  {record.identifier:<22s} {record.title}")

    # --- failover: survive an archive outage ------------------------------
    print("\n-- failover demonstration --")
    facade = FailoverSIA(optical)
    request = SIARequest(cluster.center.ra, cluster.center.dec, 2.2 * cluster.tidal_radius_deg)
    table = facade.query(request)
    print(f"query via {facade.active_identifier}: {len(table)} images")

    # the primary archive goes dark mid-session
    primary = optical[0]

    def outage(*args, **kwargs):
        raise ServiceError(f"{primary.title} is down for maintenance")

    primary.service.query = outage  # type: ignore[assignment]
    table = facade.query(request)
    print(
        f"after the primary's outage: query answered by {facade.active_identifier} "
        f"({len(table)} images); failures so far: {facade.failures}"
    )

    # cone search failover too
    cone = FailoverConeSearch(registry.discover(capability="cone-search", waveband="optical"))
    rows = cone.search(
        ConeSearchRequest(cluster.center.ra, cluster.center.dec, cluster.tidal_radius_deg)
    )
    print(f"\ncone search via {cone.active_identifier}: {len(rows)} records")

    # --- the portal itself on discovered services -------------------------
    print("\n-- a portal built from the registry --")
    env = build_demo_environment(clusters=clusters, discovery=True)
    dss = env.resource_registry.resource("ivo://nvo/dss")
    dss.service.query = outage  # type: ignore[method-assign]
    session = env.portal.select_cluster(cluster.name)
    print(
        f"{cluster.name}: {len(session.context_image_links)} images; the portal's optical archive "
        f"answered from {env.portal.optical_archive.active_identifier}"
    )


if __name__ == "__main__":
    main()
