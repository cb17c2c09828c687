"""The one DAGMan driver loop, run over interchangeable backends.

:class:`DagEngine` owns what is about the *workflow*: forced-failure
validation, :class:`DagmanState` transitions and ready-set release, the
injected-failure hook, the health ledger feed, retry/telemetry counters,
events, :class:`NodeRun` + provenance recording, the ``condor.execute``
span and the final report.  A :class:`Backend` carries attempts out and
reports how they ended: the simulator on a virtual clock, the local
executor on a thread pool.  Fault tolerance is the source paper's pair:
Condor-G retries each node up to ``max_retries`` times, and a failed run
leaves the completed set a rescue DAG resumes from (``completed=``).
With ``faults=None`` the loop costs one run record per attempt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Protocol

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
    """How one attempt ended."""

    handle: object
    failed: bool = False
    detail: str = ""
    bytes_moved: int = 0


class Backend(Protocol):
    """What the engine needs from an execution substrate."""

    def now(self) -> float:
        """Seconds since the run began, on the backend's clock."""

    def try_start(self, node_id: str, payload: object, site: str, attempt: int) -> object | None:
        """Begin one attempt at ``site``; ``None`` = no slot."""

    def next_completion(self) -> Completion | None:
        """Block until an attempt ends; ``None`` = nothing is in flight."""


class _Run(NamedTuple):
    """One in-flight attempt of a node."""

    node_id: str
    payload: object
    site: str


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
    events: EventLog
    provenance: ProvenanceStore | None = None

    def __post_init__(self) -> None:
        self._forced = merge_forced_failures(
            self.workflow, self.configured_failures, self.forced_failures
        )
        self.dagman = DagmanState(
            self.workflow.dag, max_retries=self.max_retries, completed=self.completed
        )
        self.report = ExecutionReport()
        self._first_start: dict[str, float] = {}
        self._runs: dict[object, _Run] = {}

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
            while (done := backend.next_completion()) is not None:
                self._finish(done)
                self._start_ready()
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

    def _start_ready(self) -> None:
        for node_id in self.dagman.ready_nodes():
            payload = self.workflow.dag.payload(node_id)
            site = payload_site(payload)
            attempt = self.dagman.attempts[node_id] + 1
            handle = self.backend.try_start(node_id, payload, site, attempt)
            if handle is None:
                continue  # no slot: stays READY for the next pass
            self._runs[handle] = _Run(node_id, payload, site)
            self.dagman.mark_running(node_id)
            self._first_start.setdefault(node_id, self.backend.now())

    def _finish(self, done: Completion) -> None:
        run = self._runs.pop(done.handle)
        node_id, payload, now = run.node_id, run.payload, self.backend.now()
        if self.health is not None:
            if done.failed:
                self.health.record_failure(run.site)
            else:
                self.health.record_success(run.site)
        if not done.failed:
            self.dagman.mark_success(node_id)
            self._record(run, True, "", now)
            if isinstance(payload, TransferNode):
                counts = self.report.transfer_counts
                counts[payload.kind.value] = counts.get(payload.kind.value, 0) + 1
                self.report.bytes_moved += done.bytes_moved
                telemetry.count("workflow_bytes_moved_total", done.bytes_moved)
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
        node_run = NodeRun(run.node_id, kind, run.site, start, end, attempts, success, detail)
        self.report.runs.append(node_run)
