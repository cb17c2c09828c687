"""Discrete-event Grid simulator: Condor-G/DAGMan over the pool topology.

Executes a :class:`~repro.workflow.concrete.ConcreteWorkflow` in virtual
time.  Compute nodes occupy pool slots and take
``base_runtime(transformation) / pool.speed`` (log-normal jitter); transfer
nodes take the GridFTP latency+bandwidth time of the topology; failure
injection happens per attempt at the pool's ``failure_rate``.  DAGMan
semantics (release, retry, rescue) come from :class:`DagmanState`.

The driver loop is :class:`~repro.condor.engine.DagEngine`; this module is
its virtual-time backend (:class:`_VirtualGrid`): the event heap, seeded
duration/failure draws and per-site slots.  A chaos plan's
``slow_factor``/``slow_sigma`` multiplies compute durations per attempt:
a slow site stretches the makespan and never changes an output byte.
With ``faults=None`` the schedule — every RNG draw included — is a pure
function of the seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.condor.engine import (  # noqa: F401 - merge_forced_failures re-exported
    Completion,
    DagEngine,
    merge_forced_failures,
)
from repro.condor.pool import GridTopology
from repro.condor.report import ExecutionReport
from repro.resilience.breaker import SiteHealthTracker
from repro.utils.events import EventLog
from repro.utils.rng import DEMO_SEED, derive_rng
from repro.workflow.concrete import (
    ClusteredComputeNode,
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferNode,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

#: Base runtimes (seconds on a speed-1.0 pool) per transformation.
RUNTIMES: dict[str, float] = {
    "galMorph": 12.0,
    "concatVOTable": 5.0,
}
DEFAULT_RUNTIME_FALLBACK = 10.0
REGISTRATION_TIME_S = 0.05
#: Size of a transfer whose plan-time size is 0: one 64x64 cutout FITS.
DEFAULT_FILE_SIZE = 20160


@dataclass
class SimulationOptions:
    """Simulator knobs."""

    seed: int = DEMO_SEED
    max_retries: int = 2
    runtime_jitter: float = 0.15  # log-normal sigma; 0 disables jitter
    #: Node ids forced to fail on their first N attempts (deterministic tests).
    #: Ids are validated against the workflow DAG at execution start-up; an
    #: unknown id raises :class:`~repro.core.errors.ExecutionError`.
    forced_failures: dict[str, int] = field(default_factory=dict)
    #: Per-submitted-job scheduling overhead (Condor-G match + launch).
    #: Clustering amortises exactly this cost.
    job_overhead_s: float = 0.0


class GridSimulator:
    """Runs concrete workflows in virtual time over a :class:`GridTopology`."""

    def __init__(
        self,
        topology: GridTopology,
        options: SimulationOptions | None = None,
        size_lookup: Callable[[str], int] | None = None,
        event_log: EventLog | None = None,
        faults: "FaultInjector | None" = None,
        health: SiteHealthTracker | None = None,
    ) -> None:
        self.topology = topology
        self.options = options if options is not None else SimulationOptions()
        self.size_lookup = size_lookup
        self.events = event_log if event_log is not None else EventLog()
        #: chaos fault oracle; ``None`` (default) leaves the failure model
        #: exactly as seeded (pool failure_rate + forced_failures only)
        self.faults = faults
        #: shared circuit-breaker ledger fed with per-attempt outcomes
        self.health = health

    # -- duration / failure models ------------------------------------------------
    def _compute_duration(self, node: ComputeNode, rng: np.random.Generator) -> float:
        base = RUNTIMES.get(node.transformation, DEFAULT_RUNTIME_FALLBACK)
        pool = self.topology.pools.get(node.site)
        speed = pool.speed if pool is not None else 1.0
        jitter = (
            float(rng.lognormal(0.0, self.options.runtime_jitter))
            if self.options.runtime_jitter > 0
            else 1.0
        )
        return base / speed * jitter

    def _transfer_size(self, node: TransferNode) -> int:
        if node.size_bytes > 0:
            return node.size_bytes
        if self.size_lookup is not None:
            size = self.size_lookup(node.lfn)
            if size > 0:
                return size
        return DEFAULT_FILE_SIZE

    def _duration(self, payload: object, rng: np.random.Generator) -> float:
        if isinstance(payload, ComputeNode):
            return self.options.job_overhead_s + self._compute_duration(payload, rng)
        if isinstance(payload, ClusteredComputeNode):
            # one scheduling overhead for the bundle, members sequential
            return self.options.job_overhead_s + sum(
                self._compute_duration(member, rng) for member in payload.members
            )
        if isinstance(payload, TransferNode):
            return self.topology.transfer_time(
                payload.source_site, payload.dest_site, self._transfer_size(payload)
            )
        if isinstance(payload, RegistrationNode):
            return REGISTRATION_TIME_S
        raise TypeError(f"unknown node payload {type(payload).__name__}")

    def _attempt_fails(self, payload: object, rng: np.random.Generator) -> bool:
        """The pool's own verdict: each job fails at ``failure_rate``."""
        if not isinstance(payload, (ComputeNode, ClusteredComputeNode)):
            return False
        pool = self.topology.pools.get(payload.site)
        if pool is None or pool.failure_rate <= 0:
            return False
        if isinstance(payload, ComputeNode):
            return bool(rng.random() < pool.failure_rate)
        # the bundle fails if any member does
        return bool(rng.random() > (1.0 - pool.failure_rate) ** len(payload.members))

    def execute(
        self,
        workflow: ConcreteWorkflow,
        completed: set[str] | None = None,
        forced_failures: dict[str, int] | None = None,
    ) -> ExecutionReport:
        """Simulate the workflow to completion (or stuck-failure) and report.

        ``completed`` resumes from a rescue DAG: those nodes are skipped.
        ``forced_failures`` is a runtime override merged over (and validated
        together with) :attr:`SimulationOptions.forced_failures`.
        """
        engine = DagEngine(
            workflow=workflow,
            mode="simulate",
            source="simulator",
            max_retries=self.options.max_retries,
            completed=completed,
            configured_failures=self.options.forced_failures,
            forced_failures=forced_failures,
            faults=self.faults,
            health=self.health,
            events=self.events,
        )
        return engine.run(_VirtualGrid(self, engine))


class _VirtualGrid:
    """The virtual-time backend: an event heap of finish instants over
    per-site slots.  Durations are drawn at start and the pool's failure
    verdict at finish, from one seeded stream, so a schedule is a pure
    function of (workflow, topology, options, fault plan)."""

    def __init__(self, sim: GridSimulator, engine: DagEngine) -> None:
        self.sim = sim
        self.engine = engine
        self.rng = derive_rng(sim.options.seed, "simulator")
        self.clock = 0.0
        #: (finish time, run id, node id, payload, site, attempt, slot held);
        #: the unique run id breaks finish-time ties in start order
        self.heap: list[tuple[float, int, str, object, str, int, bool]] = []
        self.run_ids = itertools.count()
        self.slots_busy = {name: 0 for name in sim.topology.pools}

    def now(self) -> float:
        return self.clock

    def try_start(self, node_id: str, payload: object, site: str, attempt: int) -> int | None:
        compute = isinstance(payload, (ComputeNode, ClusteredComputeNode))
        holds_slot = compute and site in self.slots_busy
        if holds_slot:
            if self.slots_busy[site] >= self.sim.topology.pools[site].slots:
                return None
            self.slots_busy[site] += 1
        duration = self.sim._duration(payload, self.rng)
        if compute and self.sim.faults is not None:
            duration *= max(1.0, self.sim.faults.site_slowdown(site, node_id, attempt))
        rid = next(self.run_ids)
        heapq.heappush(
            self.heap, (self.clock + duration, rid, node_id, payload, site, attempt, holds_slot)
        )
        return rid

    def next_completion(self) -> Completion | None:
        if not self.heap:
            return None
        self.clock, rid, node_id, payload, site, attempt, holds_slot = heapq.heappop(self.heap)
        if holds_slot:
            self.slots_busy[site] -= 1
        # decided at the finish instant so outage windows see ``now``
        injected = self.engine.injected_failure(node_id, payload, site, attempt, self.clock)
        failed = injected is not None or self.sim._attempt_fails(payload, self.rng)
        moved = 0
        if isinstance(payload, TransferNode) and not failed:
            moved = self.sim._transfer_size(payload)
        return Completion(rid, failed, bytes_moved=moved)
