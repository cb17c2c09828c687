"""The one DAGMan driver loop, run over interchangeable backends.

:class:`DagEngine` owns what is about the *workflow*: forced-failure
validation, :class:`DagmanState` transitions and ready-set release, the
injected-failure hook, the health ledger feed, the speculation race,
retry/telemetry counters, events, :class:`NodeRun` + provenance recording,
the ``condor.execute`` span and the final report.  A :class:`Backend`
carries attempts out and reports how they ended: the simulator on a
virtual clock, the local executor on a thread pool.  With ``faults=None``
and ``adaptive=None`` the loop costs one run record per attempt.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple, Protocol

from repro import telemetry
from repro.condor.dagman import DagmanState, NodeStatus
from repro.condor.report import ExecutionReport, NodeRun
from repro.core.errors import ExecutionError
from repro.core.provenance import InvocationRecord, ProvenanceStore
from repro.resilience.breaker import SiteHealthTracker
from repro.utils.events import EventLog
from repro.workflow.concrete import (
    ClusteredComputeNode,
    ComputeNode,
    ConcreteWorkflow,
    TransferNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.adaptive import AdaptiveController
    from repro.faults.plan import FaultInjector


def payload_kind(payload: object) -> str:
    if isinstance(payload, (ComputeNode, ClusteredComputeNode)):
        return "compute"
    return "transfer" if isinstance(payload, TransferNode) else "registration"


def payload_site(payload: object) -> str:
    """Where a node runs; a transfer "runs" at its destination."""
    if isinstance(payload, TransferNode):
        return payload.dest_site
    return payload.site  # type: ignore[attr-defined]


def node_class(payload: object) -> str:
    """The estimator/speculation class of a compute payload.  A bundle's
    duration scales with member count, so each size is its own class."""
    if isinstance(payload, ComputeNode):
        return payload.transformation
    if isinstance(payload, ClusteredComputeNode):
        return f"{payload.transformation}*{len(payload.members)}"
    raise TypeError(f"no node class for {type(payload).__name__}")


def merge_forced_failures(
    workflow: ConcreteWorkflow,
    configured: dict[str, int],
    override: dict[str, int] | None = None,
) -> dict[str, int]:
    """Merge configured + runtime forced-failure maps.  Every id must name
    a workflow node (a silently ignored typo would make a fault-injection
    test vacuously pass): raises :class:`ExecutionError` listing offenders."""
    merged = {**configured, **(override or {})}
    unknown = sorted(set(merged) - set(workflow.dag.node_ids())) if merged else []
    if unknown:
        raise ExecutionError(f"forced_failures reference unknown workflow nodes: {unknown}")
    return merged


class Completion(NamedTuple):
    """How one attempt ended.  ``handle=None`` is a capacity notice:
    nothing finished, but the backend can admit more work now."""

    handle: object | None
    failed: bool = False
    detail: str = ""
    bytes_moved: int = 0


class Backend(Protocol):
    """What the engine needs from an execution substrate."""

    def now(self) -> float:
        """Seconds since the run began, on the backend's clock."""

    def try_start(
        self, node_id: str, payload: object, site: str, attempt: int, duplicate: bool
    ) -> object | None:
        """Begin one attempt attributed to ``site``; ``None`` = no slot."""

    def next_completion(self, deadline: float | None) -> Completion | None:
        """Block until an attempt ends.  ``None`` = ``deadline`` reached
        first (or, with no deadline, nothing is in flight)."""

    def cancel(self, handle: object) -> None:
        """Abandon an attempt.  Best effort: the engine ignores a later
        completion of a handle it cancelled."""


@dataclass(slots=True, eq=False)
class _Run:
    """One in-flight attempt of a node."""

    node_id: str
    payload: object
    site: str
    started: float
    duplicate: bool
    handle: object
    #: the other copy while a duplicate races the original
    rival: "_Run | None" = field(default=None, init=False)
    #: already duplicated: one duplicate per attempt
    speculated: bool = field(default=False, init=False)


@dataclass(kw_only=True)
class DagEngine:
    """Drives one concrete workflow to completion (or stuck failure)."""

    workflow: ConcreteWorkflow
    mode: str  # the ``condor.execute`` span's ``mode`` attribute
    source: str  # the event log's source name
    max_retries: int
    completed: set[str] | None
    configured_failures: dict[str, int]
    forced_failures: dict[str, int] | None  # execute-time override
    faults: "FaultInjector | None"
    health: SiteHealthTracker | None
    adaptive: "AdaptiveController | None"
    events: EventLog
    provenance: ProvenanceStore | None = None
    #: speculation candidates, and the expected duration of a node class
    #: on a site the estimator has no history for (default: rank it last)
    sites: Collection[str] = ()
    site_prior: Callable[[str, str], float] | None = None

    def __post_init__(self) -> None:
        self._forced = merge_forced_failures(
            self.workflow, self.configured_failures, self.forced_failures
        )
        self.dagman = DagmanState(
            self.workflow.dag, max_retries=self.max_retries, completed=self.completed
        )
        self.report = ExecutionReport()
        self._policy = self.adaptive.speculation if self.adaptive is not None else None
        self._first_start: dict[str, float] = {}
        self._runs: dict[object, _Run] = {}
        #: (fire time, tiebreak, run) — re-examine a possible straggler
        self._deadlines: list[tuple[float, int, _Run]] = []
        self._seq = itertools.count()
        self._active_duplicates = 0

    # -- the attempt-outcome hook --------------------------------------------
    def injected_failure(
        self, node_id: str, payload: object, site: str, attempt: int, now: float | None = None
    ) -> str | None:
        """Why this attempt must fail, or ``None``: forced failures, then
        the chaos plan's site/transfer faults.  A backend asks when it
        decides the attempt's fate — before running a real body, at the
        virtual finish instant ``now`` — and adds its own verdict last."""
        faults = self.faults
        if attempt <= self._forced.get(node_id, 0):
            return f"forced failure of node {node_id!r} (attempt {attempt})"
        if faults is None:
            return None
        kind = payload_kind(payload)
        if kind == "compute" and faults.site_attempt_fails(site, node_id, attempt, now):
            return f"injected site fault: {site!r} refused node {node_id!r} (attempt {attempt})"
        if kind == "transfer" and faults.transfer_fails(site, node_id, attempt):
            return f"injected transfer fault: stage to {site!r} dropped for node {node_id!r}"
        return None

    # -- the driver loop -------------------------------------------------------
    def run(self, backend: Backend) -> ExecutionReport:
        self.backend, report = backend, self.report
        with telemetry.trace_span(
            "condor.execute", mode=self.mode, nodes=len(self.workflow)
        ) as span:
            self._start_ready()
            while True:
                deadline = self._deadlines[0][0] if self._deadlines else None
                done = backend.next_completion(deadline)
                if done is not None:
                    if done.handle is not None:
                        self._finish(done)
                    self._start_ready()
                elif deadline is not None:
                    self._examine_straggler()
                else:
                    break  # nothing in flight, nothing to wait for
            report.makespan = backend.now()
            report.succeeded = self.dagman.succeeded()
            report.failed_nodes = tuple(self.dagman.failed_nodes())
            report.unrunnable_nodes = tuple(
                n for n, s in self.dagman.status.items() if s is NodeStatus.UNRUNNABLE
            )
            span.set(succeeded=report.succeeded, makespan=report.makespan, retries=report.retries)
        return report

    def _emit(self, kind: str, **detail: object) -> None:
        self.events.emit(self.backend.now(), self.source, kind, **detail)

    def _launch(self, node_id: str, payload: object, site: str, duplicate: bool) -> _Run | None:
        attempt = self.dagman.attempts[node_id] + (0 if duplicate else 1)
        handle = self.backend.try_start(node_id, payload, site, attempt, duplicate)
        if handle is None:
            return None
        run = _Run(node_id, payload, site, self.backend.now(), duplicate, handle)
        self._runs[handle] = run
        return run

    def _start_ready(self) -> None:
        for node_id in self.dagman.ready_nodes():
            payload = self.workflow.dag.payload(node_id)
            run = self._launch(node_id, payload, payload_site(payload), False)
            if run is None:
                continue  # no slot: stays READY for the next pass
            self.dagman.mark_running(node_id)
            self._first_start.setdefault(node_id, run.started)
            if self._policy is not None and payload_kind(payload) == "compute":
                self._arm_deadline(run)

    def _retire(self, run: _Run) -> _Run | None:
        """Forget a run that ended or was cancelled; returns its rival."""
        del self._runs[run.handle]
        if run.duplicate:
            self._active_duplicates -= 1
        rival = run.rival
        if rival is not None:
            rival.rival = None
        return rival

    def _finish(self, done: Completion) -> None:
        run = self._runs.get(done.handle)
        if run is None:
            return  # a copy the backend could not cancel; its node is decided
        rival = self._retire(run)
        node_id, payload, now = run.node_id, run.payload, self.backend.now()
        if self.health is not None:
            if done.failed:
                self.health.record_failure(run.site)
            else:
                self.health.record_success(run.site)
        if not done.failed:
            if rival is not None:  # first finished copy wins; the loser is cancelled
                self.backend.cancel(rival.handle)
                self._retire(rival)
                self._waste(rival, "node-spec-cancelled", wasted_s=round(now - rival.started, 3))
            if run.duplicate:
                self.report.spec_won += 1
                self.adaptive.tracker.record_win(run.site, node_id)
            if self.adaptive is not None and payload_kind(payload) == "compute":
                self.adaptive.estimator.observe(run.site, node_class(payload), now - run.started)
            self.dagman.mark_success(node_id)
            self._record(run, True, "", now)
            if isinstance(payload, TransferNode):
                counts = self.report.transfer_counts
                counts[payload.kind.value] = counts.get(payload.kind.value, 0) + 1
                self.report.bytes_moved += done.bytes_moved
                telemetry.count("workflow_bytes_moved_total", done.bytes_moved)
        elif rival is not None:
            # the other copy is still racing: absorb this failure as
            # speculative waste instead of a DAGMan transition
            self._waste(run, "node-spec-copy-failed", error=done.detail)
        else:
            attempt = self.dagman.attempts[node_id]
            will_retry = self.dagman.mark_failure(node_id)
            self._emit(
                "node-failed", node=node_id, attempt=attempt, error=done.detail, retry=will_retry
            )
            if will_retry:
                self.report.retries += 1
                telemetry.count("workflow_retries_total")
            else:
                self._record(run, False, done.detail, now)

    def _record(self, run: _Run, success: bool, detail: str, end: float) -> None:
        """The node's final outcome: NodeRun, provenance, counters."""
        payload, start = run.payload, self._first_start[run.node_id]
        kind = payload_kind(payload)
        telemetry.count("workflow_nodes_total", state="succeeded" if success else "failed")
        if self.provenance is not None and kind == "compute":
            members = payload.members if isinstance(payload, ClusteredComputeNode) else (payload,)
            for member in members:
                self.provenance.record(
                    InvocationRecord(
                        job_id=member.job.job_id,
                        transformation=member.job.transformation,
                        site=member.site,
                        start_time=start,
                        end_time=end,
                        inputs=member.job.inputs,
                        outputs=member.job.outputs,
                        parameters=dict(member.job.parameters),
                        success=success,
                    )
                )
        attempts = self.dagman.attempts[run.node_id]
        # the site is the winning copy's when a duplicate won the race
        node_run = NodeRun(run.node_id, kind, run.site, start, end, attempts, success, detail)
        self.report.runs.append(node_run)

    # -- speculation -----------------------------------------------------------
    def _arm_deadline(self, run: _Run) -> None:
        """Re-examine ``run`` once it outlives its class's straggler budget
        (best-site quantile × multiplier); none exists without history."""
        policy, estimator, cls = self._policy, self.adaptive.estimator, node_class(run.payload)
        if estimator.class_samples(cls) < policy.min_samples:
            return
        quantile = estimator.best_quantile(cls, policy.quantile)
        if quantile is not None:
            budget = max(policy.min_budget_s, quantile * policy.p95_multiplier)
            heapq.heappush(
                self._deadlines, (self.backend.now() + budget, next(self._seq), run)
            )

    def _examine_straggler(self) -> None:
        """The head deadline passed: duplicate its run if that is still a
        live, not yet duplicated straggler."""
        _, _, run = heapq.heappop(self._deadlines)
        if run.handle not in self._runs or run.speculated:
            return
        if self._active_duplicates >= self._policy.max_active or not self._duplicate(run):
            self._arm_deadline(run)  # no duplicate budget/slot now: look again later

    def _duplicate(self, run: _Run) -> bool:
        """Race a second copy on the next-best site with room.  It shares
        the attempt number (hence the derivation signature), so either
        result is acceptable; transfers and registrations never race."""
        cls = node_class(run.payload)

        def expected(site: str) -> tuple[float, str]:
            predicted = self.adaptive.estimator.predict(site, cls)
            if predicted is None:
                predicted = self.site_prior(site, cls) if self.site_prior else float("inf")
            return predicted, site  # ties go to the first site by name

        for site in sorted((s for s in self.sites if s != run.site), key=expected):
            copy = self._launch(run.node_id, run.payload, site, True)
            if copy is not None:
                break
        else:
            return False
        run.rival, copy.rival, run.speculated = copy, run, True
        self._active_duplicates += 1
        self.report.speculated += 1
        self.adaptive.tracker.record_launch(site, run.node_id)
        running_s = round(copy.started - run.started, 3)
        self._emit(
            "node-speculated", node=run.node_id, from_site=run.site, to_site=site, running_s=running_s
        )
        return True

    def _waste(self, run: _Run, event: str, **detail: object) -> None:
        """A copy lost its race (cancelled, or failed while its rival
        runs on): charge exactly the seconds it ran."""
        self.report.spec_wasted += 1
        self.adaptive.tracker.record_waste(run.site, run.node_id, self.backend.now() - run.started)
        self._emit(event, node=run.node_id, site=run.site, **detail)
