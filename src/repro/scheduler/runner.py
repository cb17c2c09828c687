"""Job execution adapters.

The workload manager is execution-agnostic: anything with a
``run(spec, resume_from) -> JobOutcome`` method can drive jobs.  The
production adapter is :class:`PortalJobRunner`, which walks a job through
the full Figure-5 portal flow on a shared demonstration environment and
ships back the merged VOTable bytes.  A failed Grid run raises
:class:`JobFailure` carrying the rescue-DAG node set so the manager can
journal it and a resubmission can resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.condor.rescue import portable_completed_nodes
from repro.core.errors import ReproError, SchedulerError, is_transient
from repro.scheduler.job import JobSpec
from repro.votable.writer import write_votable


@dataclass(frozen=True)
class JobOutcome:
    """What a successful job produced."""

    result_bytes: bytes
    galaxies: int = 0
    valid_measurements: int = 0
    compute_jobs: int = 0
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
    ) -> None:
        super().__init__(message)
        self.rescue_nodes = frozenset(rescue_nodes)
        self.resumed_nodes = resumed_nodes
        self.transient = transient


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
        portal = self.env.portal
        session = portal.select_cluster(spec.cluster)
        portal.build_catalog(session)
        portal.resolve_cutouts(session)
        try:
            portal.submit_and_wait(session, resume_from=resume_from)
        except ReproError as exc:
            rescue, resumed = self._rescue_state(session, resume_from)
            # A failure is worth an automatic resubmission when the root
            # cause is typed transient, or when the run banked progress a
            # resume can skip (a replan may route around the sick site).
            raise JobFailure(
                f"cluster {spec.cluster!r}: {exc}",
                rescue_nodes=rescue,
                resumed_nodes=resumed,
                transient=is_transient(exc) or bool(rescue),
            ) from exc
        portal.merge_results(session)
        assert session.merged is not None
        report = session.report
        return JobOutcome(
            result_bytes=write_votable(session.merged).encode("utf-8"),
            galaxies=len(session.merged),
            valid_measurements=sum(1 for row in session.merged if row["valid"]),
            compute_jobs=(
                sum(1 for r in report.compute_runs if r.success) if report is not None else 0
            ),
            resumed_nodes=session.resumed_nodes,
        )

    # -- helpers ------------------------------------------------------------------
    def _rescue_state(
        self, session: "object", resume_from: set[str] | None
    ) -> tuple[frozenset[str], int]:
        """Nodes a resubmission may skip: everything this run finished plus
        everything it was itself resumed from."""
        nodes: set[str] = set(resume_from or ())
        if session.report is not None:
            # Only derivation-named (compute) nodes are portable across
            # the resubmission's replan; see portable_completed_nodes.
            nodes |= portable_completed_nodes(session.report)
        return frozenset(nodes), session.resumed_nodes
