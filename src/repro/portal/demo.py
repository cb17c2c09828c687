"""Demonstration wiring: every component of the §5 campaign in one call.

The environment matches the paper's deployment:

* three Condor pools (ISI, UWisc, Fermilab) run ``galMorph``;
* the web service's host storage (``nvo-storage``) caches images and runs
  the lightweight ``concatVOTable`` fan-in;
* the portal's site (``stsci-portal``) is the user-specified output
  location U;
* the five Table 1 data centers are served by synthetic archives over the
  eight demonstration clusters.

``seed_virtual_data_reuse=True`` pre-registers one cutout replica at the
Fermilab pool — "some other user may have already materialized part of the
entire required dataset" (§3.2) — which Pegasus's replica-aware planning
turns into one avoided stage-in during the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.condor.pool import GridTopology
from repro.condor.simulator import SimulationOptions
from repro.core.errors import ServiceError
from repro.core.vds import VirtualDataSystem
from repro.faults.plan import FaultInjector, FaultPlan
from repro.fits.io import write_fits_bytes
from repro.pegasus.options import PlannerOptions
from repro.portal.executables import register_demo_executables
from repro.portal.portal import GalaxyMorphologyPortal
from repro.portal.service import CACHE_SITE, GalaxyMorphologyService
from repro.portal.status import StatusBoard
from repro.resilience.breaker import SiteHealthTracker
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.services.conesearch import SyntheticPhotometryCatalog, SyntheticRedshiftCatalog
from repro.services.cutout import CutoutSIAService
from repro.services.nvoregistry import (
    FailoverConeSearch,
    FailoverSIA,
    ResourceRecord,
    ResourceRegistry,
)
from repro.services.registry import DataCenterRegistry, default_registry
from repro.services.sia import OpticalImageArchive, XrayImageArchive
from repro.services.transport import CostMeter, TransportModel
from repro.sky.cluster import ClusterModel
from repro.sky.imaging import CutoutFactory
from repro.sky.registry_data import DEMONSTRATION_CLUSTERS
from repro.utils.events import EventLog

#: Nominal per-cluster X-ray tile counts; DSS serves the rest of the context
#: images (see repro.sky.registry_data for the campaign accounting).  For
#: clusters with few context images the split scales down proportionally.
ROSAT_TILES = 7
CHANDRA_TILES = 5


def _tile_split(total: int) -> tuple[int, int, int]:
    """(dss, rosat, chandra) tile counts summing exactly to ``total``."""
    chandra = min(CHANDRA_TILES, total // 4)
    rosat = min(ROSAT_TILES, max((total - chandra) // 2, 0))
    return total - rosat - chandra, rosat, chandra

GALMORPH_POOLS = ("isi", "uwisc", "fnal")
OUTPUT_SITE = "stsci-portal"


@dataclass
class DemoEnvironment:
    """The fully wired demonstration system."""

    clusters: tuple[ClusterModel, ...]
    registry: DataCenterRegistry
    meter: CostMeter
    transport: TransportModel
    events: EventLog
    vds: VirtualDataSystem
    optical_archive: OpticalImageArchive
    rosat_archive: XrayImageArchive
    chandra_archive: XrayImageArchive
    photometry_service: SyntheticPhotometryCatalog
    redshift_service: SyntheticRedshiftCatalog
    cutout_service: CutoutSIAService
    compute_service: GalaxyMorphologyService
    portal: GalaxyMorphologyPortal
    #: populated when the environment was built with discovery=True
    resource_registry: ResourceRegistry | None = None
    #: populated when the environment was built with a fault plan
    fault_injector: FaultInjector | None = None
    #: per-site circuit-breaker ledger (present iff resilience is enabled)
    health: SiteHealthTracker | None = None


def build_demo_environment(
    clusters: Sequence[ClusterModel] = DEMONSTRATION_CLUSTERS,
    execution_mode: str = "local",
    site_selection: str = "round-robin",
    failure_rate: float = 0.0,
    seed_virtual_data_reuse: bool = True,
    max_retries: int = 2,
    discovery: bool = False,
    fault_plan: FaultPlan | None = None,
    archive_quorum: int | None = None,
    cutout_quorum: float = 1.0,
) -> DemoEnvironment:
    """Construct the complete demonstration environment.

    ``site_selection="round-robin"`` makes the campaign's job placement —
    and hence its transfer accounting — deterministic; pass ``"random"``
    for the paper's actual policy.

    ``discovery=True`` builds the portal the way §5 says a production NVO
    should work: every archive is *registered* in an NVO resource registry
    (with a mirror for each), the portal's services are *discovered* from
    it, and each is wrapped in a failover facade — an archive outage
    mid-session fails over to the mirror instead of failing the user.

    ``fault_plan`` switches on chaos mode: a deterministic
    :class:`~repro.faults.plan.FaultInjector` is threaded through every
    data service, the RLS and both execution engines, and the resilience
    layer (retry policies, per-site circuit breakers, health-aware site
    selection, portal quorum) is armed against it.  When ``fault_plan`` is
    ``None`` none of this machinery is constructed — the fault-free
    environment is byte-for-byte the pre-chaos one.
    """
    clusters = tuple(clusters)
    meter = CostMeter()
    transport = TransportModel()
    events = EventLog()

    # --- the chaos + resilience layer ------------------------------------
    injector: FaultInjector | None = None
    health: SiteHealthTracker | None = None
    retry_policy: RetryPolicy | None = None
    if fault_plan is not None:
        injector = fault_plan.injector()
        health = SiteHealthTracker()
        retry_policy = DEFAULT_RETRY_POLICY

    # --- the Grid ---------------------------------------------------------
    topology = GridTopology.default_demo(failure_rate=failure_rate)
    vds = VirtualDataSystem(
        topology=topology,
        planner_options=PlannerOptions(
            output_site=OUTPUT_SITE,
            register_outputs=True,
            site_selection=site_selection,
            replica_selection="random",
        ),
        simulation_options=SimulationOptions(max_retries=max_retries),
        faults=injector,
        health=health,
    )
    vds.add_storage_site(CACHE_SITE)
    vds.add_storage_site(OUTPUT_SITE)
    register_demo_executables(vds.registry)
    for pool in GALMORPH_POOLS:
        vds.tc.install("galMorph", pool, "/usr/local/vds/bin/galmorph", version="1.0")
    vds.tc.install("concatVOTable", CACHE_SITE, "/usr/local/vds/bin/concat-votable", version="1.0")

    # --- the data services --------------------------------------------------
    splits = {c.name: _tile_split(c.context_image_count) for c in clusters}
    optical = OpticalImageArchive(
        clusters,
        tiles_per_cluster={name: s[0] for name, s in splits.items()},
        meter=meter,
        transport=transport,
        faults=injector,
    )
    rosat = XrayImageArchive(
        clusters,
        survey="SYNTH-ROSAT",
        tiles_per_cluster={name: s[1] for name, s in splits.items()},
        meter=meter,
        transport=transport,
        faults=injector,
    )
    chandra = XrayImageArchive(
        clusters,
        survey="SYNTH-CHANDRA",
        tiles_per_cluster={name: s[2] for name, s in splits.items()},
        meter=meter,
        transport=transport,
        faults=injector,
    )
    photometry = SyntheticPhotometryCatalog(
        clusters, meter=meter, transport=transport, faults=injector
    )
    redshift = SyntheticRedshiftCatalog(
        clusters, meter=meter, transport=transport, faults=injector
    )
    cutouts = CutoutSIAService(clusters, meter=meter, transport=transport, faults=injector)

    resource_registry: ResourceRegistry | None = None
    portal_optical = optical
    portal_rosat = rosat
    portal_chandra = chandra
    portal_phot = photometry
    portal_spec = redshift
    if discovery:
        resource_registry = ResourceRegistry()
        # register each archive plus an independent mirror instance
        mirrors = {
            "dss": OpticalImageArchive(
                clusters, tiles_per_cluster={n: s[0] for n, s in splits.items()},
                meter=meter, transport=transport,
            ),
            "rosat": XrayImageArchive(
                clusters, survey="SYNTH-ROSAT",
                tiles_per_cluster={n: s[1] for n, s in splits.items()},
                meter=meter, transport=transport,
            ),
            "chandra": XrayImageArchive(
                clusters, survey="SYNTH-CHANDRA",
                tiles_per_cluster={n: s[2] for n, s in splits.items()},
                meter=meter, transport=transport,
            ),
            "ned": SyntheticPhotometryCatalog(clusters, meter=meter, transport=transport),
            "cnoc": SyntheticRedshiftCatalog(clusters, meter=meter, transport=transport),
        }
        entries = [
            ("dss", "sia", "optical", optical, mirrors["dss"]),
            ("rosat", "sia", "x-ray", rosat, mirrors["rosat"]),
            ("chandra", "sia", "x-ray", chandra, mirrors["chandra"]),
            ("ned", "cone-search", "optical", photometry, mirrors["ned"]),
            ("cnoc", "cone-search", "optical", redshift, mirrors["cnoc"]),
        ]
        for key, capability, waveband, primary, mirror in entries:
            resource_registry.register(
                ResourceRecord(f"ivo://nvo/{key}", key, capability, primary, waveband=waveband)
            )
            resource_registry.register(
                ResourceRecord(f"ivo://mirror/{key}", f"{key}-mirror", capability, mirror, waveband=waveband)
            )

        def discovered(key: str, capability: str):
            return [
                record
                for record in resource_registry.discover(capability=capability)
                if record.title.startswith(key)
            ]

        portal_optical = FailoverSIA(discovered("dss", "sia"))
        portal_rosat = FailoverSIA(discovered("rosat", "sia"))
        portal_chandra = FailoverSIA(discovered("chandra", "sia"))
        portal_phot = FailoverConeSearch(discovered("ned", "cone-search"))
        portal_spec = FailoverConeSearch(discovered("cnoc", "cone-search"))

    def fetch_url(url: str) -> bytes:
        for service in (cutouts, optical, rosat, chandra):
            if url.startswith(service.base_url):
                return service.fetch(url)
        raise ServiceError(f"no service handles URL {url!r}")

    # --- the compute web service + portal --------------------------------------
    compute = GalaxyMorphologyService(
        vds=vds,
        fetch_url=fetch_url,
        output_site=OUTPUT_SITE,
        execution_mode=execution_mode,
        meter=meter,
        status_board=StatusBoard(),
        event_log=events,
        retry_policy=retry_policy,
    )
    portal = GalaxyMorphologyPortal(
        clusters=list(clusters),
        optical_archive=portal_optical,
        xray_archives=[portal_rosat, portal_chandra],
        photometry_service=portal_phot,
        redshift_service=portal_spec,
        cutout_service=cutouts,
        compute_service=compute,
        meter=meter,
        event_log=events,
        retry_policy=retry_policy,
        archive_quorum=archive_quorum,
        cutout_quorum=cutout_quorum,
    )

    if seed_virtual_data_reuse:
        _seed_reuse_replica(vds, clusters)

    return DemoEnvironment(
        clusters=clusters,
        registry=default_registry(),
        meter=meter,
        transport=transport,
        events=events,
        vds=vds,
        optical_archive=optical,
        rosat_archive=rosat,
        chandra_archive=chandra,
        photometry_service=photometry,
        redshift_service=redshift,
        cutout_service=cutouts,
        compute_service=compute,
        portal=portal,
        resource_registry=resource_registry,
        fault_injector=injector,
        health=health,
    )


def _seed_reuse_replica(vds: VirtualDataSystem, clusters: Sequence[ClusterModel]) -> None:
    """Pre-materialise one cutout at the Fermilab pool (§3.2's reuse story).

    The richest cluster's first member is chosen; under round-robin site
    selection its galMorph job lands on ``fnal`` (first site in sorted
    order), so the planner finds the input already local and skips that
    stage-in.
    """
    richest = max(clusters, key=lambda c: c.n_galaxies)
    factory = CutoutFactory(richest)
    first = factory.members()[0]
    lfn = f"{first.galaxy_id}.fit"
    content = write_fits_bytes(factory.render_cutout(first.galaxy_id))
    site = vds.sites["fnal"]
    pfn = site.pfn_for(lfn)
    site.put(pfn, content)
    vds.rls.register(lfn, pfn, "fnal")
