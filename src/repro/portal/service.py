"""The Galaxy Morphology compute web service ("Pegasus as a Web service").

Implements the seven numbered steps of Figure 6:

1. receive (input VOTable, cluster name); mint a request id; return the
   status URL immediately (asynchronous interface, §4.3.1(2));
2. query the RLS for the output VOTable; if mapped, publish its location
   and finish — the virtual-data short circuit;
3. transform the input VOTable into a URL list (the first "stylesheet"),
   download each image into the local cache site and register it in the
   RLS (§4.3.1(3): the GridFTP-reachable image cache);
4. transform the input VOTable into Chimera VDL (the second "stylesheet"):
   the galMorph TR once, one DV per galaxy, one fan-in concat DV;
5. Chimera composes the abstract workflow for the output VOTable;
6. Pegasus reduces + concretizes and DAGMan/Condor-G executes;
7. the status page serves the final VOTable's location once the RLS holds
   its registration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry
from repro.catalog.cosmology import H0, OMEGA_M
from repro.core.errors import (
    MalformedResponseError,
    ReproError,
    ServiceError,
    is_transient,
)
from repro.core.vds import VirtualDataSystem
from repro.pegasus.planner import PlanResult
from repro.condor.report import ExecutionReport
from repro.resilience.retry import RetryPolicy, retry_call
from repro.services.transport import CostMeter
from repro.utils.events import EventLog
from repro.utils.ids import new_request_id
from repro.portal.status import StatusBoard, StatusMessage
from repro.votable.model import VOTable
from repro.workflow.concrete import RegistrationNode

#: Fetches image bytes for an access URL (wired to the cutout service).
UrlFetcher = Callable[[str], bytes]

#: The GridFTP-reachable image cache of §4.3.1(3); also where results are cached.
CACHE_SITE = "nvo-storage"

#: Request records kept (each holds its ``PlanResult`` and
#: ``ExecutionReport``), oldest evicted first.  ``benchmarks/e2e`` counts a
#: timed window's requests from this store (~450 warm resubmits in 15 s), so
#: the bound leaves that an order of magnitude of headroom.
REQUESTS_KEPT = 4096

#: Columns the input VOTable must carry (built by the portal).
REQUIRED_INPUT_FIELDS = ("id", "ra", "dec", "redshift", "cutout_url", "cutout_scale")


# -- the two XSLT-equivalent transforms (§4.3: "we used two stylesheets") ----
def votable_to_url_list(vot: VOTable) -> list[tuple[str, str]]:
    """Stylesheet 1: the input VOTable -> (galaxy id, image URL) pairs."""
    missing = [f for f in ("id", "cutout_url") if f not in vot.field_names()]
    if missing:
        raise ServiceError(f"input VOTable lacks fields {missing}")
    return [(row["id"], row["cutout_url"]) for row in vot]


GALMORPH_TR = """
TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
             in flat, in image, out galMorph ) { }

TR concatVOTable( in results, in cluster, out votable ) { }
"""


def votable_to_vdl(vot: VOTable, out_name: str, cluster_name: str) -> str:
    """Stylesheet 2: the input VOTable -> VDL derivations.

    One ``galMorph`` DV per galaxy (mirroring the paper's example
    derivation, scalar cosmology parameters included) plus the fan-in
    ``concatVOTable`` DV producing the cluster's output VOTable.
    """
    chunks: list[str] = []
    result_lfns: list[str] = []
    for row in vot:
        galaxy_id = row["id"]
        image_lfn = f"{galaxy_id}.fit"
        result_lfn = f"{galaxy_id}.txt"
        result_lfns.append(result_lfn)
        chunks.append(
            f'DV dv-{galaxy_id}->galMorph( '
            f'redshift="{row["redshift"]}", '
            f'pixScale="{row["cutout_scale"]}", '
            f'zeroPoint="0.0", Ho="{H0}", om="{OMEGA_M}", flat="1", '
            f'image=@{{in:"{image_lfn}"}}, '
            f'galMorph=@{{out:"{result_lfn}"}} );'
        )
    joined = ",".join(f'"{lfn}"' for lfn in result_lfns)
    # Keyed by the *output* name: the same cluster requested under a new
    # output VOTable name is a distinct derivation producing a distinct file.
    chunks.append(
        f'DV dv-concat-{out_name}->concatVOTable( '
        f'results=@{{in:{joined}}}, cluster="{cluster_name}", '
        f'votable=@{{out:"{out_name}"}} );'
    )
    return "\n".join(chunks) + "\n"


@dataclass
class ServiceRequestStatus:
    """Book-keeping the service retains per request (for benches/tests)."""

    request_id: str
    cluster: str
    out_name: str
    status_url: str
    short_circuited: bool = field(default=False, init=False)
    images_downloaded: int = field(default=0, init=False)
    images_cached: int = field(default=0, init=False)
    bytes_downloaded: int = field(default=0, init=False)
    plan: PlanResult | None = field(default=None, init=False)
    report: ExecutionReport | None = field(default=None, init=False)
    #: Nodes pre-marked DONE by a rescue-DAG resume (resubmission path).
    resumed_nodes: int = field(default=0, init=False)


class GalaxyMorphologyService:
    """The asynchronous Grid compute service of §4.3."""

    def __init__(
        self,
        vds: VirtualDataSystem,
        fetch_url: UrlFetcher,
        output_site: str | None = None,
        execution_mode: str = "local",
        meter: CostMeter | None = None,
        status_board: StatusBoard | None = None,
        event_log: EventLog | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.vds = vds
        self.fetch_url = fetch_url
        self.retry_policy = retry_policy
        self.cache_site = CACHE_SITE
        self.output_site = output_site if output_site is not None else (
            vds.planner_options.output_site or CACHE_SITE
        )
        self.execution_mode = execution_mode
        self.meter = meter
        self.status = status_board if status_board is not None else StatusBoard()
        self.events = event_log if event_log is not None else vds.events
        #: status URL -> book-keeping of the last :data:`REQUESTS_KEPT` requests
        self.requests: dict[str, ServiceRequestStatus] = {}
        self._tr_defined = False
        self.result_base_url = "http://isi.grid/galmorph/result"
        #: Serialises catalog mutation + planning so concurrent requests
        #: (the workload manager dispatches several campaigns at once) never
        #: interleave VDC definitions or planner passes; execution itself —
        #: the long pole — still runs fully in parallel.
        self._plan_lock = threading.Lock()

    # -- public API (what the portal's two lines of C# called) ----------------
    def gal_morph_compute(
        self,
        vot: VOTable,
        out_name: str,
        cluster_name: str,
        resume_from: set[str] | None = None,
    ) -> str:
        """Accept a request; return the status URL (Figure 6 step 1).

        Processing happens before return (single-process reproduction), but
        all results flow through the status page exactly as the polling
        protocol requires.  ``resume_from`` carries rescue-DAG state from a
        failed earlier request: any of those nodes still present in the new
        plan are pre-marked DONE so only the remainder executes.
        """
        missing = [f for f in REQUIRED_INPUT_FIELDS if f not in vot.field_names()]
        if missing:
            raise ServiceError(f"input VOTable missing required fields: {missing}")
        request_id = new_request_id()
        status_url = self.status.create(request_id)
        state = ServiceRequestStatus(request_id, cluster_name, out_name, status_url)
        self.requests[status_url] = state
        if len(self.requests) > REQUESTS_KEPT:
            del self.requests[next(iter(self.requests))]
        self.status.post(request_id, "accepted", f"request for {cluster_name} accepted")
        self.events.emit(0.0, "service", "request-accepted", cluster=cluster_name, out=out_name)
        telemetry.count("service_requests_total", kind="galmorph-compute")
        with telemetry.trace_span(
            "service.request", cluster=cluster_name, out=out_name, galaxies=len(vot)
        ) as span:
            try:
                self._process(state, vot, resume_from=resume_from)
            except ReproError as exc:
                # Typed failure taxonomy: transient faults (timeouts, flaky
                # transports) are distinguishable from permanent ones so the
                # caller can decide whether a resubmission is worthwhile.
                category = "transient" if is_transient(exc) else "permanent"
                telemetry.count(
                    "service_request_errors_total",
                    category=category,
                    kind=type(exc).__name__,
                )
                self.status.post(
                    request_id, "failed", f"{type(exc).__name__}: {exc}"
                )
                self.events.emit(
                    0.0, "service", "request-failed",
                    error=str(exc), category=category,
                )
            except Exception as exc:  # pragma: no cover - last-resort guard
                # The boundary still never propagates: a truly unexpected
                # error becomes a failed status, flagged as such.
                telemetry.count(
                    "service_request_errors_total",
                    category="unexpected",
                    kind=type(exc).__name__,
                )
                self.status.post(request_id, "failed", f"internal error: {exc}")
                self.events.emit(
                    0.0, "service", "request-failed",
                    error=str(exc), category="unexpected",
                )
            span.set(short_circuited=state.short_circuited)
        return status_url

    def poll(self, status_url: str) -> StatusMessage:
        """GET of the status URL (the portal polls this)."""
        if self.meter is not None:
            self.meter.charge("status-poll", 0.1)
        return self.status.poll(status_url)

    def fetch_result(self, result_url: str) -> bytes:
        """Retrieve a finished output VOTable by its published URL."""
        lfn = result_url.rsplit("/", 1)[-1]
        return self.vds.retrieve(lfn)

    # -- the Figure 6 pipeline --------------------------------------------------
    def _result_url(self, out_name: str) -> str:
        return f"{self.result_base_url}/{out_name}"

    def _process(
        self,
        state: ServiceRequestStatus,
        vot: VOTable,
        resume_from: set[str] | None = None,
    ) -> None:
        request_id = state.request_id

        # (2) the virtual-data short circuit
        if self.vds.rls.exists(state.out_name):
            state.short_circuited = True
            telemetry.count("rls_short_circuits_total")
            self.events.emit(0.0, "service", "rls-short-circuit", out=state.out_name)
            self.status.post(
                request_id, "completed",
                "output VOTable already materialised; answered from the RLS",
                result_url=self._result_url(state.out_name),
            )
            return

        # (3) URL list + image cache
        self.status.post(request_id, "running", "collecting galaxy images")
        self._collect_images(state, vot)

        # (4)+(5) VDL generation, Chimera composition, Pegasus planning.
        # One request at a time may mutate the VDC / run the planner;
        # execution below happens outside the lock.
        self.status.post(request_id, "running", "planning and executing on the Grid")
        with self._plan_lock:
            self._define_vdl(state, vot)
            self.events.emit(0.0, "service", "vdl-generated", cluster=state.cluster)
            plan = self.vds.plan([state.out_name])
        state.plan = plan

        # Rescue-DAG resume: pre-mark nodes the failed run already finished.
        # Pegasus reduction may have pruned some of them (their outputs got
        # registered before the failure), so intersect with the live DAG.
        completed = None
        if resume_from:
            completed = set(resume_from) & set(plan.concrete.dag.node_ids())
            state.resumed_nodes = len(completed)
            if completed:
                self.events.emit(
                    0.0, "service", "rescue-resume",
                    out=state.out_name, resumed=len(completed),
                )

        # (6) DAGMan execution
        report = self.vds.execute(
            plan, mode=self.execution_mode, completed=completed or None
        )
        state.report = report
        if self.execution_mode == "simulate" and report.succeeded:
            self._finalize_simulated(plan)

        # (7) completion via the RLS mapping
        if report.succeeded and self.vds.rls.exists(state.out_name):
            self.status.post(
                request_id, "completed",
                f"workflow complete: {len(report.compute_runs)} jobs, "
                f"{len(report.transfer_runs)} transfers",
                result_url=self._result_url(state.out_name),
            )
        else:
            self.status.post(
                request_id, "failed",
                f"workflow failed: {len(report.failed_nodes)} node(s) failed, "
                f"{len(report.unrunnable_nodes)} unrunnable",
            )

    def _collect_images(self, state: ServiceRequestStatus, vot: VOTable) -> None:
        """Figure 6 step 3: download + cache + register each galaxy image.

        The RLS short-circuit is *verified*: a mapped LFN whose replicas
        have all vanished (stale catalog entries) is invalidated and the
        image re-downloaded instead of poisoning the workflow's stage-in.
        """
        cache = self.vds.sites[self.cache_site]
        with telemetry.trace_span("service.collect_images", cluster=state.cluster) as span:
            for galaxy_id, url in votable_to_url_list(vot):
                image_lfn = f"{galaxy_id}.fit"
                if self.vds.rls.exists(image_lfn) and self._verify_cached(image_lfn):
                    state.images_cached += 1
                    continue  # already cached (or materialised elsewhere in the Grid)
                content = self._fetch_image(galaxy_id, url)
                pfn = cache.pfn_for(image_lfn)
                cache.put(pfn, content)
                self.vds.rls.register(image_lfn, pfn, self.cache_site)
                state.images_downloaded += 1
                state.bytes_downloaded += len(content)
            span.set(
                downloaded=state.images_downloaded,
                cached=state.images_cached,
                bytes=state.bytes_downloaded,
            )
        self.events.emit(
            0.0, "service", "images-collected",
            downloaded=state.images_downloaded, cached=state.images_cached,
        )

    def _verify_cached(self, lfn: str) -> bool:
        """True iff at least one replica of ``lfn`` is actually retrievable.

        Replicas whose bytes have vanished are stale catalog entries; they
        are invalidated (unregistered + counted) so later stage-ins never
        see them.
        """
        stale = []
        retrievable = False
        for replica in self.vds.rls.lookup(lfn):
            site = self.vds.sites.get(replica.site)
            if site is not None and site.exists(replica.pfn):
                retrievable = True
            else:
                stale.append(replica)
        for replica in stale:
            self.vds.rls.invalidate_stale(replica)
        return retrievable

    def _fetch_image(self, galaxy_id: str, url: str) -> bytes:
        """Download one image with integrity verification (+ retry if configured).

        A truncated or garbled payload raises
        :class:`~repro.core.errors.MalformedResponseError` — a *transient*
        error, so a configured retry policy re-requests it.
        """

        def attempt() -> bytes:
            content = self.fetch_url(url)
            self._verify_fits(galaxy_id, content)
            return content

        if self.retry_policy is None:
            return attempt()

        def on_backoff(attempt_no: int, delay: float, exc: BaseException) -> None:
            telemetry.count("resilience_retries_total", target="service-fetch")
            if self.meter is not None:
                self.meter.charge("retry-backoff", delay)

        return retry_call(
            attempt,
            self.retry_policy,
            label=f"image-fetch/{galaxy_id}",
            on_backoff=on_backoff,
        )

    @staticmethod
    def _verify_fits(galaxy_id: str, content: bytes) -> None:
        """FITS integrity check: magic word + 2880-byte block alignment."""
        if not content.startswith(b"SIMPLE") or len(content) % 2880 != 0:
            raise MalformedResponseError(
                f"image for {galaxy_id!r} is not a valid FITS payload "
                f"({len(content)} bytes)"
            )

    def _define_vdl(self, state: ServiceRequestStatus, vot: VOTable) -> None:
        """Figure 6 step 4; TR text only on the first request ever."""
        with telemetry.trace_span(
            "service.vdl_generate", cluster=state.cluster, galaxies=len(vot)
        ):
            self._define_vdl_impl(state, vot)

    def _define_vdl_impl(self, state: ServiceRequestStatus, vot: VOTable) -> None:
        if not self._tr_defined:
            self.vds.define(GALMORPH_TR)
            self._tr_defined = True
        vdl_lines = votable_to_vdl(vot, state.out_name, state.cluster)
        # Skip derivations already defined by an earlier request (their
        # outputs have a producer); define only the new ones.
        fresh: list[str] = []
        for line in vdl_lines.splitlines():
            if not line.strip():
                continue
            name = line.split("->", 1)[0].removeprefix("DV ").strip()
            try:
                self.vds.vdc.derivation(name)
            except KeyError:
                fresh.append(line)
        if fresh:
            self.vds.define("\n".join(fresh))
        # Annotate the derivations with application metadata so virtual
        # data can be requested by meaning ("cluster=A1656"), not only by
        # logical file name (the GriPhyN metadata story).
        for row in vot:
            name = f'dv-{row["id"]}'
            try:
                self.vds.vdc.annotate(name, cluster=state.cluster, galaxy=row["id"], kind="morphology")
            except KeyError:
                pass  # defined by an earlier request; annotations persist
        try:
            self.vds.vdc.annotate(
                f"dv-concat-{state.out_name}", cluster=state.cluster, kind="catalog"
            )
        except KeyError:
            pass

    def _finalize_simulated(self, plan: PlanResult) -> None:
        """In simulation mode registration nodes ran only virtually; mirror
        their effect so second-request caching semantics still hold."""
        for node_id, payload in plan.concrete.dag.payloads():
            if isinstance(payload, RegistrationNode):
                site = self.vds.sites.get(payload.site)
                if site is not None and not site.exists(payload.pfn):
                    site.put_size(payload.pfn, self._simulated_size(payload.lfn))
                self.vds.rls.register(payload.lfn, payload.pfn, payload.site)

    @staticmethod
    def _simulated_size(lfn: str) -> int:
        if lfn.endswith(".fit"):
            return 20160
        if lfn.endswith(".txt"):
            return 256
        return 4096
