"""Job execution adapters.

The workload manager is execution-agnostic: anything with a
``run(spec, resume_from) -> JobOutcome`` method can drive jobs.  The
production adapter is :class:`PortalJobRunner`, which walks a job through
the full Figure-5 portal flow on a shared demonstration environment and
ships back the merged VOTable bytes and the §5 :class:`JobAccounting` of
the job's own compute request (computed here and nowhere else).  A failed
Grid run raises :class:`JobFailure` carrying the rescue-DAG node set, so
the manager can journal it and a resubmission can resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.condor.report import ExecutionReport
from repro.condor.rescue import portable_completed_nodes
from repro.core.errors import ReproError, SchedulerError, is_transient
from repro.scheduler.job import JobAccounting, JobSpec
from repro.votable.writer import write_votable


@dataclass(frozen=True)
class JobOutcome:
    """What a successful job produced (a cache hit has no accounting)."""

    result_bytes: bytes
    accounting: JobAccounting | None = None
    resumed_nodes: int = 0


class JobFailure(SchedulerError):
    """A job's Grid run failed; carries resume state for the resubmission.

    ``transient=True`` marks failures rooted in transient faults (service
    timeouts, flaky transfers, site outages a breaker will route around):
    the workload manager may automatically requeue such a job with backoff
    instead of declaring it FAILED.
    """

    def __init__(
        self,
        message: str,
        rescue_nodes: frozenset[str] = frozenset(),
        resumed_nodes: int = 0,
        transient: bool = False,
        accounting: JobAccounting | None = None,
    ) -> None:
        super().__init__(message)
        self.rescue_nodes = frozenset(rescue_nodes)
        self.resumed_nodes = resumed_nodes
        self.transient = transient
        self.accounting = accounting


class JobRunner(Protocol):
    """The execution contract the manager dispatches through."""

    def run(self, spec: JobSpec, resume_from: set[str] | None) -> JobOutcome:
        """Execute one job; raise :class:`JobFailure` on a failed Grid run."""
        ...


@dataclass
class PortalJobRunner:
    """The portal's Figure-5 walk as a job body over a shared environment.

    The environment must execute in ``"local"`` mode (real bytes; the
    simulate engine declares sizes only, so there would be no VOTable to
    fetch).  Concurrent jobs are safe: storage sites, the RLS, the status
    board and the event log are all internally locked, and the compute
    service serialises catalog mutation + planning behind its plan lock
    while Grid execution — the long pole — overlaps freely.
    """

    env: "object"  # repro.portal.demo.DemoEnvironment (kept loose for tests)

    def run(self, spec: JobSpec, resume_from: set[str] | None) -> JobOutcome:
        portal, requests = self.env.portal, self.env.compute_service.requests
        session = portal.select_cluster(spec.cluster)
        portal.build_catalog(session)
        portal.resolve_cutouts(session)
        try:
            portal.submit_and_wait(session, resume_from=resume_from)
        except ReproError as exc:
            request = requests[session.status_url]
            # A resubmission may skip what this run was resumed from and the
            # compute nodes it finished (portable_completed_nodes).
            rescue = set(resume_from or ())
            if request.report is not None:
                rescue |= portable_completed_nodes(request.report)
            # A failure is worth an automatic resubmission when the root
            # cause is typed transient, or when the run banked progress a
            # resume can skip (a replan may route around the sick site).
            raise JobFailure(
                f"cluster {spec.cluster!r}: {exc}",
                rescue_nodes=frozenset(rescue),
                resumed_nodes=request.resumed_nodes,
                transient=is_transient(exc) or bool(rescue),
                accounting=self._accounting(session, request),
            ) from exc
        portal.merge_results(session)
        assert session.merged is not None
        request = requests[session.status_url]
        return JobOutcome(
            result_bytes=write_votable(session.merged).encode("utf-8"),
            accounting=self._accounting(session, request),
            resumed_nodes=request.resumed_nodes,
        )

    def _accounting(self, session: "object", request: "object") -> JobAccounting:
        """The §5 numbers of the session's own compute request."""
        # No report: the service answered from the RLS and ran nothing, so
        # the job is charged no Grid work and no images.
        report = request.report or ExecutionReport()
        counts = report.transfer_counts
        galaxies = valid = images = image_bytes = 0
        if session.merged is not None:
            galaxies = len(session.merged)
            valid = sum(1 for row in session.merged if row["valid"])
            if request.report is not None:
                images = galaxies + session.n_context_images
                # The pre-seeded reuse replica is processed but was never
                # downloaded by the service; charge its nominal size so
                # "images processed" bytes stay consistent.
                missing = galaxies - request.images_downloaded - request.images_cached
                image_bytes = (
                    request.bytes_downloaded
                    + missing * self.env.cutout_service.estimated_size()
                    + session.context_image_bytes
                )
        return JobAccounting(
            galaxies=galaxies,
            valid_measurements=valid,
            compute_jobs=sum(1 for r in report.compute_runs if r.success),
            transfers=sum(counts.values()),
            stage_in=counts.get("stage-in", 0),
            inter_site=counts.get("inter-site", 0),
            stage_out=counts.get("stage-out", 0),
            images=images,
            image_bytes=image_bytes,
            jobs_per_site=report.jobs_per_site(),
            failed_nodes=len(report.failed_nodes),
            unrunnable_nodes=len(report.unrunnable_nodes),
        )
