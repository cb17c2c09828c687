"""Discrete-event Grid simulator: Condor-G/DAGMan over the pool topology.

Executes a :class:`~repro.workflow.concrete.ConcreteWorkflow` in virtual
time.  Compute nodes occupy pool slots and take
``base_runtime(transformation) / pool.speed`` (log-normal jitter); transfer
nodes take the GridFTP latency+bandwidth time of the topology; failure
injection happens per attempt at the pool's ``failure_rate``.  DAGMan
semantics (release, retry, rescue) come from :class:`DagmanState`.

The driver loop is :class:`~repro.condor.engine.DagEngine`; this module is
its virtual-time backend (:class:`_VirtualGrid`): the event heap, seeded
duration/failure draws, per-site slots and the autoscaler's slot
overlay.  A chaos plan's ``slow_factor``/``slow_sigma``
multiplies compute durations per attempt; a speculative duplicate is an
ordinary run on another site whose cancellation frees its slot at once.
With ``adaptive=None`` and ``faults=None`` the schedule — every RNG draw
included — is a pure function of the seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.condor.engine import (  # noqa: F401 - node_class/merge_forced_failures re-exported
    Completion,
    DagEngine,
    merge_forced_failures,
    node_class,
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
    from repro.adaptive import AdaptiveController
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


def payload_with_site(payload: object, site: str) -> object:
    """A compute payload re-pinned to ``site`` (speculative duplicates)."""
    if isinstance(payload, ComputeNode):
        return replace(payload, site=site)
    if isinstance(payload, ClusteredComputeNode):
        members = tuple(replace(m, site=site) for m in payload.members)
        return replace(payload, members=members, site=site)
    raise TypeError(f"cannot re-site {type(payload).__name__}")


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
        adaptive: "AdaptiveController | None" = None,
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
        #: the adaptive-execution layer (speculation + autoscaling);
        #: ``None`` keeps the event schedule identical to the static engine
        self.adaptive = adaptive

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

        def site_prior(site: str, cls: str) -> float:
            base = RUNTIMES.get(cls.split("*")[0], DEFAULT_RUNTIME_FALLBACK)
            return base / self.topology.pools[site].speed

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
            adaptive=self.adaptive,
            events=self.events,
            sites=self.topology.pools,
            site_prior=site_prior,
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
        #: (finish time, run id); a cancelled run's entry is skipped when reached
        self.heap: list[tuple[float, int]] = []
        self.run_ids = itertools.count()
        #: run id -> (node id, payload, site, attempt, slot held)
        self.runs: dict[int, tuple[str, object, str, int, bool]] = {}
        self.slots_busy = {name: 0 for name in sim.topology.pools}
        #: ready nodes refused for want of a slot since the last completion
        self.blocked: dict[str, int] = {}
        self.slot_limit = lambda site: sim.topology.pools[site].slots
        self.autoscaler = None
        adaptive = sim.adaptive
        if adaptive is not None and adaptive.autoscale is not None:
            from repro.adaptive.autoscale import SiteAutoscaler

            self.autoscaler = SiteAutoscaler(sim.topology.capacities(), adaptive.autoscale)
            self.slot_limit = self.autoscaler.slots  # the dynamic overlay
            adaptive.last_autoscaler = self.autoscaler
        self.rescale_due = self.autoscaler is not None

    def now(self) -> float:
        return self.clock

    def try_start(
        self, node_id: str, payload: object, site: str, attempt: int, duplicate: bool
    ) -> int | None:
        compute = isinstance(payload, (ComputeNode, ClusteredComputeNode))
        holds_slot = compute and site in self.slots_busy
        if holds_slot:
            if self.slots_busy[site] >= self.slot_limit(site):
                if not duplicate:  # a refused duplicate is not queue demand
                    self.blocked[site] = self.blocked.get(site, 0) + 1
                return None
            self.slots_busy[site] += 1
        if duplicate:
            payload = payload_with_site(payload, site)
        duration = self.sim._duration(payload, self.rng)
        if compute and self.sim.faults is not None:
            duration *= max(1.0, self.sim.faults.site_slowdown(site, node_id, attempt))
        rid = next(self.run_ids)
        self.runs[rid] = (node_id, payload, site, attempt, holds_slot)
        heapq.heappush(self.heap, (self.clock + duration, rid))
        return rid

    def cancel(self, handle: int) -> None:
        """The slot comes back immediately."""
        _, _, site, _, holds_slot = self.runs.pop(handle)
        if holds_slot:
            self.slots_busy[site] -= 1

    def _rescale(self) -> bool:
        """One autoscaling decision per site against the demand blocked
        since the last completion; True when any site grew."""
        grew = False
        for site in sorted(self.slots_busy):
            before = self.autoscaler.slots(site)
            after = self.autoscaler.evaluate(
                site, self.blocked.get(site, 0), self.slots_busy[site], self.clock
            )
            grew = grew or after > before
        return grew

    def next_completion(self, deadline: float | None) -> Completion | None:
        if self.rescale_due:
            self.rescale_due = False
            if self._rescale():
                return Completion(None)  # the grant may admit blocked nodes now
        while self.heap and (deadline is None or self.heap[0][0] <= deadline):
            self.clock, rid = heapq.heappop(self.heap)
            run = self.runs.pop(rid, None)
            if run is None:
                # cancelled, slot long freed — but the clock still moves here, as
                # to a stale deadline below: the makespan is when the queue drained
                continue
            node_id, payload, site, attempt, holds_slot = run
            if holds_slot:
                self.slots_busy[site] -= 1
            # decided at the finish instant so outage windows see ``now``
            injected = self.engine.injected_failure(node_id, payload, site, attempt, self.clock)
            failed = injected is not None or self.sim._attempt_fails(payload, self.rng)
            self.blocked.clear()
            self.rescale_due = self.autoscaler is not None
            moved = 0
            if isinstance(payload, TransferNode) and not failed:
                moved = self.sim._transfer_size(payload)
            return Completion(rid, failed, bytes_moved=moved)
        if deadline is not None:
            self.clock = deadline
        return None
