"""The real executor: concrete workflows over actual bytes and callables.

Where the simulator models time, :class:`LocalExecutor` does the work:
compute nodes call registered Python functions (the real ``galMorph`` and
``concatVOTable`` of :mod:`repro.portal.executables`), transfer nodes move
bytes between :class:`~repro.rls.site.StorageSite` stores, registration
nodes publish into the live RLS.  The driver loop is
:class:`~repro.condor.engine.DagEngine`; this module is its real backend
(:class:`_ThreadPool`) and the node bodies.  Those are mostly GIL-bound
Python, so threads overlap stalls (transfers, injected delays), not
computation: the benchmark's ``process.free_cores_speedup`` is 0.55–0.75.
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, Sequence

from repro import telemetry
from repro.condor.engine import Completion, DagEngine, payload_kind
from repro.condor.report import ExecutionReport
from repro.core.errors import ExecutionError, StaleReplicaError, TransportError
from repro.core.provenance import ProvenanceStore
from repro.resilience.breaker import SiteHealthTracker
from repro.rls.rls import Replica, ReplicaLocationService
from repro.rls.site import StorageSite
from repro.utils.events import EventLog
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import (
    ClusteredComputeNode,
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

#: A transformation body: (job, inputs by lfn) -> outputs by lfn.
Executable = Callable[[AbstractJob, dict[str, bytes]], dict[str, bytes]]

#: A *batch* transformation body: one call handles a whole seqexec bundle of
#: same-transformation jobs, returning one outputs dict per job (same order).
#: This is how clustered compute nodes amortise per-cutout setup — the real
#: galMorph batch body shares one cutout-geometry cache across all members.
BatchExecutable = Callable[
    [Sequence[AbstractJob], Sequence[dict[str, bytes]]], Sequence[dict[str, bytes]]
]


class ExecutableRegistry:
    """Maps logical transformation names to Python callables.

    This is the local-execution counterpart of the Transformation Catalog:
    the TC says *where* an executable lives; the registry says *what it
    does* when this process is the execution site.

    Transformations may additionally register a **batch body** via
    :meth:`register_batch`; clustered compute nodes whose members all share
    that transformation are then executed through one call instead of a
    per-member loop, amortising setup (geometry caches, cosmology tables)
    across the bundle.
    """

    def __init__(self) -> None:
        self._executables: dict[str, Executable] = {}
        self._batch_executables: dict[str, BatchExecutable] = {}

    def register(self, transformation: str, fn: Executable) -> None:
        if transformation in self._executables:
            raise ValueError(f"executable for {transformation!r} already registered")
        self._executables[transformation] = fn

    def register_batch(self, transformation: str, fn: BatchExecutable) -> None:
        """Install a whole-bundle body for ``transformation``.

        The per-job body must still be registered (it remains the fallback
        for unclustered nodes and mixed-transformation bundles).
        """
        if transformation not in self._executables:
            raise ValueError(
                f"register the per-job executable for {transformation!r} "
                "before its batch variant"
            )
        if transformation in self._batch_executables:
            raise ValueError(f"batch executable for {transformation!r} already registered")
        self._batch_executables[transformation] = fn

    def get(self, transformation: str) -> Executable:
        if transformation not in self._executables:
            raise ExecutionError(f"no executable registered for transformation {transformation!r}")
        return self._executables[transformation]

    def get_batch(self, transformation: str) -> BatchExecutable | None:
        """The batch body for ``transformation``, or ``None`` if only the
        per-job body exists."""
        return self._batch_executables.get(transformation)

    def __contains__(self, transformation: str) -> bool:
        return transformation in self._executables


class LocalExecutor:
    """Thread-pooled real execution of concrete workflows."""

    def __init__(
        self,
        sites: dict[str, StorageSite],
        registry: ExecutableRegistry,
        rls: ReplicaLocationService,
        max_workers: int = 8,
        max_retries: int = 2,
        provenance: ProvenanceStore | None = None,
        event_log: EventLog | None = None,
        forced_failures: dict[str, int] | None = None,
        faults: "FaultInjector | None" = None,
        health: SiteHealthTracker | None = None,
    ) -> None:
        self.sites = dict(sites)
        self.registry = registry
        self.rls = rls
        self.max_workers = max_workers
        self.max_retries = max_retries
        self.provenance = provenance if provenance is not None else ProvenanceStore()
        self.events = event_log if event_log is not None else EventLog()
        #: Node ids whose first N attempts raise (fault injection; validated
        #: against the workflow DAG at execute() start-up, like the simulator).
        self.forced_failures = dict(forced_failures or {})
        #: Chaos fault oracle (site outages / flakes / transfer failures);
        #: ``None`` — the default — leaves the execution paths untouched.
        self.faults = faults
        #: Shared per-site circuit-breaker ledger; node outcomes feed it so
        #: the planner's health-aware site selection can route around
        #: misbehaving sites on the next (re)plan.
        self.health = health
        self._rls_lock = threading.Lock()

    # -- storage helpers -----------------------------------------------------
    def _site(self, name: str) -> StorageSite:
        if name not in self.sites:
            raise ExecutionError(f"no storage configured for site {name!r}")
        return self.sites[name]

    def _read_input(self, site_name: str, lfn: str) -> bytes:
        """Read an input file at a site: canonical PFN first, then any RLS
        replica registered at that site (the skipped-stage-in case)."""
        site = self._site(site_name)
        canonical = site.pfn_for(lfn)
        if site.exists(canonical):
            return site.get(canonical)
        for replica in self.rls.lookup(lfn):
            if replica.site == site_name and site.exists(replica.pfn):
                return site.get(replica.pfn)
        raise TransportError(f"input {lfn!r} not present at site {site_name!r}")

    # -- node bodies (run on worker threads) -------------------------------------
    def _run_compute(self, node: ComputeNode) -> None:
        inputs = {lfn: self._read_input(node.site, lfn) for lfn in node.job.inputs}
        fn = self.registry.get(node.job.transformation)
        self._store_outputs(node, fn(node.job, inputs))

    def _store_outputs(self, node: ComputeNode, outputs: dict[str, bytes]) -> None:
        missing = set(node.job.outputs) - set(outputs)
        if missing:
            raise ExecutionError(
                f"job {node.job.job_id!r} did not produce declared outputs {sorted(missing)}"
            )
        site = self._site(node.site)
        for lfn, content in outputs.items():
            site.put(site.pfn_for(lfn), content)

    def _run_cluster(self, payload: ClusteredComputeNode) -> None:
        """Run a seqexec bundle, batched when the transformation allows it.

        If every member shares one transformation and a batch body is
        registered for it, the whole bundle goes through a single call —
        inputs are still read per member, and each member's declared
        outputs are still checked and written.  Otherwise the bundle falls
        back to the seed per-member loop.
        """
        transformations = {member.job.transformation for member in payload.members}
        batch_fn = (
            self.registry.get_batch(next(iter(transformations)))
            if len(transformations) == 1
            else None
        )
        if batch_fn is None:
            # seqexec semantics: members run sequentially in one task
            for member in payload.members:
                self._run_compute(member)
            return

        jobs = [member.job for member in payload.members]
        inputs_list = [
            {lfn: self._read_input(member.site, lfn) for lfn in member.job.inputs}
            for member in payload.members
        ]
        outputs_list = batch_fn(jobs, inputs_list)
        if len(outputs_list) != len(jobs):
            raise ExecutionError(
                f"batch executable for {jobs[0].transformation!r} returned "
                f"{len(outputs_list)} results for {len(jobs)} jobs"
            )
        for member, outputs in zip(payload.members, outputs_list):
            self._store_outputs(member, outputs)

    def _run_transfer(self, node: TransferNode) -> int:
        source = self._site(node.source_site)
        try:
            content = source.get(node.source_pfn)
        except TransportError:
            content = self._failover_fetch(node)
        self._site(node.dest_site).put(node.dest_pfn, content)
        return len(content)

    def _failover_fetch(self, node: TransferNode) -> bytes:
        """Stage-in failover: the planned source PFN is gone.

        The RLS mapping that produced this transfer was stale — unregister
        it so no later plan trips over it, then walk the remaining
        replicas in catalog order and serve the first one that verifies.
        Only when *no* replica holds the bytes does the failure propagate
        (as :class:`StaleReplicaError`, retried by DAGMan like any other
        node failure).
        """
        self.rls.invalidate_stale(
            Replica(lfn=node.lfn, pfn=node.source_pfn, site=node.source_site)
        )
        for replica in self.rls.lookup(node.lfn):
            site = self.sites.get(replica.site)
            if site is None:
                continue
            try:
                content = site.get(replica.pfn)
            except TransportError:
                self.rls.invalidate_stale(replica)
                continue
            telemetry.count("resilience_replica_failovers_total")
            self.events.emit(
                0.0,
                "local-executor",
                "replica-failover",
                lfn=node.lfn,
                stale_site=node.source_site,
                served_from=replica.site,
            )
            return content
        raise StaleReplicaError(
            f"no live replica of {node.lfn!r}: planned source "
            f"{node.source_pfn!r} at {node.source_site!r} vanished and no "
            "alternative replica verified"
        )

    def _run_registration(self, node: RegistrationNode) -> None:
        with self._rls_lock:
            self.rls.register(node.lfn, node.pfn, node.site)

    def _run_node(self, payload: object) -> int:
        """Dispatch; returns bytes moved (transfers) or 0."""
        if isinstance(payload, ComputeNode):
            self._run_compute(payload)
            return 0
        if isinstance(payload, ClusteredComputeNode):
            self._run_cluster(payload)
            return 0
        if isinstance(payload, TransferNode):
            return self._run_transfer(payload)
        if isinstance(payload, RegistrationNode):
            self._run_registration(payload)
            return 0
        raise TypeError(f"unknown node payload {type(payload).__name__}")

    def _traced_run_node(
        self, deps: list[str], node_id: str, payload: object, site: str, attempt: int
    ) -> int:
        """Worker-thread body with a per-node span around :meth:`_run_node`.

        Submitted through ``contextvars.copy_context().run`` so the span
        parents to the driver's open ``condor.execute`` span even though
        :class:`ThreadPoolExecutor` does not propagate contextvars itself.
        """
        with telemetry.trace_span(
            "condor.node",
            node=node_id,
            kind=payload_kind(payload),
            site=site,
            attempts=attempt,
            deps=deps,
        ):
            return self._run_node(payload)

    @staticmethod
    def _with_delay(delay_s: float, fn: Callable[..., int], *args: object) -> int:
        """Worker body prefixed with an injected wall stall (slow-site chaos)."""
        time.sleep(delay_s)
        return fn(*args)

    def execute(
        self,
        workflow: ConcreteWorkflow,
        completed: set[str] | None = None,
        forced_failures: dict[str, int] | None = None,
    ) -> ExecutionReport:
        """Run the workflow to completion; never raises for job failures —
        DAGMan semantics report them instead.  ``completed`` resumes from a
        rescue DAG, skipping the nodes an earlier run finished.
        ``forced_failures`` is a runtime override merged over the
        constructor map; both are validated against the workflow DAG."""
        engine = DagEngine(
            workflow=workflow,
            mode="local",
            source="local-executor",
            max_retries=self.max_retries,
            completed=completed,
            configured_failures=self.forced_failures,
            forced_failures=forced_failures,
            faults=self.faults,
            health=self.health,
            events=self.events,
            provenance=self.provenance,
        )
        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return engine.run(_ThreadPool(self, pool, engine))


class _ThreadPool:
    """The real backend: node bodies on a thread pool, wall-clock time.
    The pool queues without bound, so a start is never refused."""

    def __init__(self, executor: LocalExecutor, pool: ThreadPoolExecutor, engine: DagEngine) -> None:
        self.executor = executor
        self.pool = pool
        self.engine = engine
        self.t0 = time.perf_counter()
        self.in_flight = 0
        #: futures land here from their done-callback, in finish order
        self.done: queue.SimpleQueue[Future] = queue.SimpleQueue()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def try_start(self, node_id: str, payload: object, site: str, attempt: int) -> Future:
        executor = self.executor
        reason = self.engine.injected_failure(node_id, payload, site, attempt)
        if reason is not None:
            future: Future = Future()  # fails without its body ever running
            future.set_exception(ExecutionError(reason))
        else:
            call: tuple = (executor._run_node, payload)
            if telemetry.enabled():
                # a copied Context can be entered once, so copy per task
                deps = sorted(self.engine.workflow.dag.parents(node_id))
                call = (
                    contextvars.copy_context().run, executor._traced_run_node,
                    deps, node_id, payload, site, attempt,
                )
            if executor.faults is not None and payload_kind(payload) == "compute":
                delay_s = executor.faults.site_wall_delay(site, node_id, attempt)
                if delay_s > 0:
                    call = (executor._with_delay, delay_s, *call)
            future = self.pool.submit(*call)
        self.in_flight += 1
        future.add_done_callback(self.done.put)
        return future

    def next_completion(self) -> Completion | None:
        if not self.in_flight:
            return None
        future = self.done.get()
        self.in_flight -= 1
        try:
            return Completion(future, bytes_moved=future.result())
        except Exception as exc:  # noqa: BLE001 - a node body may raise anything
            return Completion(future, True, str(exc))
