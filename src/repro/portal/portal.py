"""The user portal: Figure 5's information flow as a library object.

"The portal first allows a user to select from a list of galaxy clusters
... the portal look[s] up the cluster's spherical position in an internal
catalog.  With that position, the portal searches three image archives, one
containing optical images (DSS) and two others containing x-ray images
(ROSAT, Chandra) ... The user can then request to begin analysis", which
builds the galaxy catalog from two Cone Search services, resolves cutout
references via SIA, ships the combined VOTable to the compute service,
polls, and merges the computed parameters back in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.catalog.crossmatch import crossmatch_positions
from repro.core.errors import ServiceError
from repro.resilience.retry import DEFAULT_RETRY_POLICY, retry_call
from repro.services.conesearch import ConeSearchService
from repro.services.cutout import CutoutSIAService
from repro.services.protocol import ConeSearchRequest, SIARequest
from repro.services.sia import SIAService
from repro.services.transport import CostMeter
from repro.sky.cluster import ClusterModel
from repro.portal.service import GalaxyMorphologyService
from repro.utils.events import EventLog
from repro.votable.model import Field, VOTable
from repro.votable.ops import add_column, inner_join
from repro.votable.parser import parse_votable

#: Status polls before the portal gives up on a request.
MAX_POLLS = 10_000

#: Combined-catalog schema the portal assembles for the compute service.
CATALOG_FIELDS = (
    Field("id", "char", ucd="meta.id"),
    Field("ra", "double", unit="deg", ucd="pos.eq.ra"),
    Field("dec", "double", unit="deg", ucd="pos.eq.dec"),
    Field("mag_r", "double", unit="mag"),
    Field("color_gr", "double", unit="mag"),
    Field("redshift", "double"),
    Field("velocity", "double", unit="km/s"),
)


def _first_row_by_title(table: VOTable) -> dict[str, dict]:
    """Each title's first record: the pick a scan for that title makes."""
    first: dict[str, dict] = {}
    for row in table:
        first.setdefault(row["title"], row)
    return first


@dataclass
class PortalSession:
    """State of one user's walk through the portal."""

    cluster: ClusterModel
    context_image_links: list[str] = field(default_factory=list, init=False)
    context_image_bytes: int = field(default=0, init=False)
    catalog: VOTable | None = field(default=None, init=False)
    input_votable: VOTable | None = field(default=None, init=False)
    status_url: str | None = field(default=None, init=False)
    polls: int = field(default=0, init=False)
    result_table: VOTable | None = field(default=None, init=False)
    merged: VOTable | None = field(default=None, init=False)
    #: graceful-degradation ledger: archive name -> error text for every
    #: archive that stayed down after retries (quorum mode only)
    archive_errors: dict[str, str] = field(default_factory=dict, init=False)
    #: galaxies dropped because their cutout reference never resolved
    dropped_galaxies: list[str] = field(default_factory=list, init=False)

    @property
    def degraded(self) -> bool:
        """Did this session lose any archive or galaxy along the way?"""
        return bool(self.archive_errors or self.dropped_galaxies)

    @property
    def n_context_images(self) -> int:
        return len(self.context_image_links)


class GalaxyMorphologyPortal:
    """The STScI portal, reproduced in-process."""

    def __init__(
        self,
        clusters: list[ClusterModel],
        optical_archive: SIAService,
        xray_archives: list[SIAService],
        photometry_service: ConeSearchService,
        redshift_service: ConeSearchService,
        cutout_service: CutoutSIAService,
        compute_service: GalaxyMorphologyService,
        meter: CostMeter | None = None,
        event_log: EventLog | None = None,
        archive_quorum: int | None = None,
        cutout_quorum: float = 1.0,
    ) -> None:
        self._clusters = {c.name: c for c in clusters}  # the internal catalog
        self.optical_archive = optical_archive
        self.xray_archives = list(xray_archives)
        self.photometry_service = photometry_service
        self.redshift_service = redshift_service
        self.cutout_service = cutout_service
        self.compute_service = compute_service
        self.meter = meter
        self.events = event_log if event_log is not None else EventLog()
        #: graceful degradation for the context-image search: minimum
        #: number of image archives that must answer.  ``None`` (default)
        #: keeps the seed all-or-nothing semantics; with a quorum, dead
        #: archives are annotated instead of failing the session.
        self.archive_quorum = archive_quorum
        #: fraction of catalog galaxies whose cutouts must resolve
        #: (1.0 = every galaxy, the seed behaviour).  Below the quorum the
        #: session fails; above it, unresolvable galaxies are dropped and
        #: annotated.
        self.cutout_quorum = cutout_quorum

    def _retried(self, label: str, fn):
        """Run one service call under the shared retry policy.

        Backoff delays are charged to the meter (``retry-backoff``): a
        portal that waits out an archive hiccup pays for the waiting, so
        campaign cost accounting under chaos reflects real wall cost.
        """

        def on_backoff(attempt: int, delay: float, exc: BaseException) -> None:
            telemetry.count("resilience_retries_total", target="portal")
            if self.meter is not None:
                self.meter.charge("retry-backoff", delay)

        return retry_call(fn, DEFAULT_RETRY_POLICY, label=label, on_backoff=on_backoff)

    # -- Figure 5, stage by stage ------------------------------------------------
    def list_clusters(self) -> list[str]:
        """The cluster pick-list ("restrict[ed] to those for which we know
        all the necessary data exist")."""
        return sorted(self._clusters)

    def select_cluster(self, name: str) -> PortalSession:
        """Look up the cluster position and search the three image archives."""
        if name not in self._clusters:
            raise ServiceError(f"unknown cluster {name!r}; choose from {self.list_clusters()}")
        cluster = self._clusters[name]
        session = PortalSession(cluster=cluster)
        self.events.emit(0.0, "portal", "cluster-selected", cluster=name)

        with telemetry.trace_span("portal.select_cluster", cluster=name) as span:
            field_size = 2.2 * cluster.tidal_radius_deg
            request = SIARequest(ra=cluster.center.ra, dec=cluster.center.dec, size=field_size)
            archives = [self.optical_archive, *self.xray_archives]
            answered = 0
            for archive in archives:
                archive_name = getattr(archive, "survey", type(archive).__name__)
                try:
                    table = self._retried(
                        f"archive-query/{archive_name}/{name}",
                        lambda a=archive: a.query(request),
                    )
                except ServiceError as exc:
                    # Graceful degradation: with a quorum configured a dead
                    # archive becomes an annotation, not a session failure.
                    if self.archive_quorum is None:
                        raise
                    session.archive_errors[archive_name] = str(exc)
                    telemetry.count("portal_archive_errors_total", archive=archive_name)
                    self.events.emit(
                        0.0, "portal", "archive-degraded",
                        cluster=name, archive=archive_name, error=str(exc),
                    )
                    continue
                answered += 1
                for row in table:
                    session.context_image_links.append(row["url"])
                    session.context_image_bytes += int(row["size_bytes"])
            if self.archive_quorum is not None and answered < self.archive_quorum:
                raise ServiceError(
                    f"archive quorum not met for {name!r}: {answered}/{len(archives)} "
                    f"archives answered, quorum is {self.archive_quorum} "
                    f"(errors: {session.archive_errors})"
                )
            span.set(images=session.n_context_images, archives_answered=answered)
        self.events.emit(
            0.0, "portal", "context-images-found",
            cluster=name, images=session.n_context_images,
        )
        return session

    def build_catalog(self, session: PortalSession) -> VOTable:
        """Cone-search both catalog services and merge by sky position."""
        cluster = session.cluster
        with telemetry.trace_span("portal.build_catalog", cluster=cluster.name) as span:
            cone = ConeSearchRequest(
                ra=cluster.center.ra, dec=cluster.center.dec, sr=1.1 * cluster.tidal_radius_deg
            )
            phot = self._retried(
                f"cone/photometry/{cluster.name}",
                lambda: self.photometry_service.search(cone),
            )
            spec = self._retried(
                f"cone/redshift/{cluster.name}",
                lambda: self.redshift_service.search(cone),
            )
            pairs = crossmatch_positions(phot["ra"], phot["dec"], spec["ra"], spec["dec"])
            catalog = VOTable(CATALOG_FIELDS, name=f"{cluster.name}-catalog")
            for i_phot, i_spec in pairs:
                prow, srow = phot.row(i_phot), spec.row(i_spec)
                catalog.append(
                    {
                        "id": prow["id"],
                        "ra": prow["ra"],
                        "dec": prow["dec"],
                        "mag_r": prow["mag_r"],
                        "color_gr": prow["color_gr"],
                        "redshift": srow["redshift"],
                        "velocity": srow["velocity"],
                    }
                )
            span.set(photometry=len(phot), spectroscopy=len(spec), matched=len(catalog))
        session.catalog = catalog
        self.events.emit(
            0.0, "portal", "catalog-built",
            cluster=cluster.name, photometry=len(phot), spectroscopy=len(spec),
            matched=len(catalog),
        )
        return catalog

    def resolve_cutouts(self, session: PortalSession, batched: bool = False) -> VOTable:
        """Resolve the per-galaxy cutout references over SIA.

        ``batched=False`` (default) issues one tight SIA query per catalog
        galaxy — the §4.2 bottleneck, reproduced faithfully.  ``batched=True``
        uses the hypothetical all-at-once interface the paper wishes for
        ("This could be sped up tremendously if one could query for all
        images at once"); the transport meter records the difference.
        """
        if session.catalog is None:
            raise ServiceError("build_catalog must run before resolve_cutouts")
        with telemetry.trace_span(
            "portal.resolve_cutouts", cluster=session.cluster.name, batched=batched
        ) as span:
            requests = [
                SIARequest(ra=row["ra"], dec=row["dec"], size=0.005) for row in session.catalog
            ]
            if batched:
                merged = _first_row_by_title(self.cutout_service.query_batch(requests))
                picks = [merged.get(row["id"]) for row in session.catalog]
            else:
                picks = []
                for i, (row, request) in enumerate(zip(session.catalog, requests)):
                    table = self._retried(
                        f"cutout-query/{session.cluster.name}/{i}",
                        lambda r=request: self.cutout_service.query(r),
                    )
                    picks.append(_first_row_by_title(table).get(row["id"]))
            urls: list[str] = []
            scales: list[float] = []
            resolved_rows: list[dict] = []
            for row, match in zip(session.catalog, picks):
                if match is None:
                    # Per-row quorum: below 1.0 an unresolvable galaxy is
                    # dropped and annotated instead of failing the session.
                    if self.cutout_quorum >= 1.0:
                        raise ServiceError(
                            f"cutout service returned no image for {row['id']!r}"
                        )
                    session.dropped_galaxies.append(row["id"])
                    telemetry.count("portal_dropped_galaxies_total")
                    continue
                resolved_rows.append(row)
                urls.append(match["url"])
                scales.append(match["scale"])
            total = len(session.catalog)
            if total and len(resolved_rows) / total < self.cutout_quorum:
                raise ServiceError(
                    f"cutout quorum not met for {session.cluster.name!r}: "
                    f"{len(resolved_rows)}/{total} galaxies resolved, quorum is "
                    f"{self.cutout_quorum:.0%}"
                )
            catalog = session.catalog
            if session.dropped_galaxies:
                catalog = VOTable(
                    catalog.fields, name=catalog.name, params=dict(catalog.params)
                )
                for row in resolved_rows:
                    catalog.append(row)
                session.catalog = catalog
            span.set(resolved=len(urls), dropped=len(session.dropped_galaxies))
        with_urls = add_column(session.catalog, Field("cutout_url", "char", ucd="meta.ref.url"), urls)
        session.input_votable = add_column(
            with_urls, Field("cutout_scale", "double", unit="deg/pix"), scales
        )
        self.events.emit(0.0, "portal", "cutouts-resolved", count=len(urls))
        return session.input_votable

    def submit_and_wait(
        self, session: PortalSession, resume_from: set[str] | None = None
    ) -> VOTable:
        """Ship the VOTable to the compute service, poll, fetch results.

        ``resume_from`` forwards rescue-DAG state (node ids a failed earlier
        request completed) to the compute service, which pre-marks them DONE.
        """
        if session.input_votable is None:
            raise ServiceError("resolve_cutouts must run before submit_and_wait")
        out_name = f"{session.cluster.name}-morphology.vot"
        with telemetry.trace_span(
            "portal.submit_and_wait", cluster=session.cluster.name, out=out_name
        ) as span:
            session.status_url = self.compute_service.gal_morph_compute(
                session.input_votable, out_name, session.cluster.name,
                resume_from=resume_from,
            )
            self.events.emit(0.0, "portal", "compute-submitted", out=out_name)
            message = self.compute_service.poll(session.status_url)
            session.polls = 1
            while not message.state in ("completed", "failed"):
                if session.polls >= MAX_POLLS:
                    raise ServiceError(f"gave up polling after {session.polls} polls")
                message = self.compute_service.poll(session.status_url)
                session.polls += 1
            span.set(polls=session.polls, state=message.state)
            if message.state == "failed" or message.result_url is None:
                raise ServiceError(f"compute service failed: {message.text}")
            payload = self.compute_service.fetch_result(message.result_url)
            session.result_table = parse_votable(payload.decode("utf-8"))
        self.events.emit(0.0, "portal", "results-received", rows=len(session.result_table))
        return session.result_table

    def merge_results(self, session: PortalSession) -> VOTable:
        """Join the computed parameters back into the galaxy catalog."""
        if session.input_votable is None or session.result_table is None:
            raise ServiceError("submit_and_wait must run before merge_results")
        with telemetry.trace_span("portal.merge_results", cluster=session.cluster.name) as span:
            session.merged = inner_join(session.input_votable, session.result_table, on="id")
            # Degradation annotations ride the output VOTable as PARAMs so a
            # consumer can tell a partial catalog from a complete one.  A
            # clean (recovered) session adds nothing — its serialisation is
            # byte-identical to a fault-free run.
            for archive_name, error in sorted(session.archive_errors.items()):
                session.merged.params[f"archive_error_{archive_name}"] = error
            if session.dropped_galaxies:
                session.merged.params["dropped_galaxies"] = ",".join(
                    sorted(session.dropped_galaxies)
                )
            span.set(rows=len(session.merged), degraded=session.degraded)
        self.events.emit(0.0, "portal", "results-merged", rows=len(session.merged))
        return session.merged

    def run_analysis(self, cluster_name: str) -> PortalSession:
        """The complete Figure 5 flow for one cluster.

        With telemetry enabled the whole walk is one ``portal.run_analysis``
        trace: every stage, service call, planner step, DAG node and
        galMorph kernel below it parents back to this span.
        """
        with telemetry.trace_span("portal.run_analysis", cluster=cluster_name) as span:
            telemetry.count("portal_sessions_total")
            session = self.select_cluster(cluster_name)
            self.build_catalog(session)
            self.resolve_cutouts(session)
            self.submit_and_wait(session)
            self.merge_results(session)
            span.set(
                galaxies=len(session.merged) if session.merged is not None else 0,
                polls=session.polls,
            )
        return session
