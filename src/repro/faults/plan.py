"""Fault plans and the injector they compile to.

A :class:`FaultPlan` is a frozen, declarative answer to three questions:

* **which service calls fail, and how** — per-stream
  :class:`ServiceFaultSpec` (timeouts, transient 5xx-style errors,
  malformed/truncated payloads, partial responses);
* **which Grid sites misbehave** — per-site :class:`SiteFaultSpec`
  (outage windows on the sim clock, attempt-count outages, per-attempt
  flakiness, stage-in transfer failures);
* **how the replica catalog lies** — :class:`RlsFaultSpec` (lookup
  timeouts, LFNs whose registered PFNs have vanished).

Determinism contract
--------------------
Every stochastic decision is drawn from a :func:`~repro.utils.rng.derive_rng`
stream keyed by stable labels:

* single-threaded call sites (service clients, RLS) use a per-stream
  *counter*: the n-th cone query of a run sees the same fate in every run;
* concurrent call sites (executor worker pools) use *identity keys*
  ``(site, node_id, attempt)``: thread scheduling cannot reorder the
  draws, so the same node attempt fails in every run regardless of pool
  interleaving — the same trick the engines' ``forced_failures`` uses.

Zero-cost contract
------------------
``FaultPlan`` is only consulted at construction time: components receive a
compiled :class:`FaultInjector` (or ``None``, the default).  When no plan
is configured the fault branches are either absent entirely (hooks not
installed) or one ``is None`` test.  The recovery layer does not wait
for a plan: every environment is armed.  The overhead gate in
``benchmarks/gates.py`` holds the disabled hooks plus that always-on
boundary below 1%.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.utils.rng import DEMO_SEED, derive_rng

#: Service-fault streams the injector understands.  Keys of
#: :attr:`FaultPlan.services` must come from this set.  Optical SIA and
#: X-ray SIA are distinct streams so a profile can take the X-ray
#: archives down while the optical survey stays up (the quorum story).
SERVICE_STREAMS = (
    "cone-query",
    "sia-query",
    "xray-query",
    "cutout-query",
    "cutout-fetch",
)

#: Possible outcomes of :meth:`FaultInjector.service_action`.
SERVICE_ACTIONS = ("ok", "timeout", "error", "malformed", "partial")


@dataclass(frozen=True)
class ServiceFaultSpec:
    """How one VO-service stream misbehaves.

    Rates are per-call probabilities, checked in the order
    timeout → error → malformed → partial with a single uniform draw
    (so ``timeout_rate + error_rate + ... <= 1`` must hold).

    ``max_faults`` bounds the *total* number of injected faults on the
    stream — the knob that makes a profile recoverable by construction:
    with ``max_faults`` smaller than the retry budget, every call
    eventually succeeds.  ``None`` means unbounded (degradation
    profiles).  ``permanent=True`` turns every fault into a
    :class:`~repro.core.errors.PermanentServiceError`-style failure the
    retry layer must *not* absorb.
    """

    timeout_rate: float = 0.0
    error_rate: float = 0.0
    malformed_rate: float = 0.0
    partial_rate: float = 0.0
    max_faults: int | None = None
    permanent: bool = False

    def __post_init__(self) -> None:
        total = (
            self.timeout_rate + self.error_rate + self.malformed_rate + self.partial_rate
        )
        if not 0.0 <= total <= 1.0:
            raise ValueError("service fault rates must sum to within [0, 1]")
        for rate in (
            self.timeout_rate,
            self.error_rate,
            self.malformed_rate,
            self.partial_rate,
        ):
            if rate < 0.0:
                raise ValueError("fault rates must be non-negative")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError("max_faults must be non-negative")


@dataclass(frozen=True)
class SiteFaultSpec:
    """How one Grid site misbehaves.

    ``outage_attempts``
        Every node attempt numbered ``<= outage_attempts`` (1-based,
        per node) on this site fails outright.  A large value models a
        hard outage: since per-node attempts are bounded by the
        executor's ``max_retries``, the site is effectively down for the
        whole run and recovery must come from a replan that routes
        around it.  Identity-keyed on ``(node_id, attempt)``, so the
        schedule is deterministic under any pool interleaving.
    ``outages``
        Sim-clock windows ``(start_s, end_s)`` during which every attempt
        fails; only the simulator consults these.
    ``flakiness``
        Per-attempt failure probability (identity-keyed draw).
    ``stage_in_failure_rate``
        Per-transfer probability that a stage-in/out copy from/to this
        site raises a transient transport error (identity-keyed).
    ``slow_factor`` / ``slow_sigma`` / ``slow_max_factor``
        Heavy-tail service latency: every compute attempt on this site is
        slowed by ``slow_factor × lognormal(0, slow_sigma)``, clipped to
        ``[1, slow_max_factor]`` and identity-keyed on ``(node_id,
        attempt)``.  ``slow_factor=1.0`` with ``slow_sigma=0`` (the
        default) disables the model.  The site stays *alive* — nothing
        fails — so circuit breakers never see it: a slow site stretches
        the makespan and never changes an output byte.
    ``slow_wall_unit_s`` / ``slow_wall_cap_s``
        How the local executor realises a slowdown factor as real wall
        time: ``min(cap, (factor - 1) × unit)`` seconds of sleep before
        the node body.  ``unit=0`` (default) keeps local runs at
        full speed while the simulator still sees the virtual tail.
    """

    outage_attempts: int = 0
    outages: tuple[tuple[float, float], ...] = ()
    flakiness: float = 0.0
    stage_in_failure_rate: float = 0.0
    slow_factor: float = 1.0
    slow_sigma: float = 0.0
    slow_max_factor: float = 50.0
    slow_wall_unit_s: float = 0.0
    slow_wall_cap_s: float = 1.0

    def __post_init__(self) -> None:
        if self.outage_attempts < 0:
            raise ValueError("outage_attempts must be non-negative")
        if not 0.0 <= self.flakiness <= 1.0:
            raise ValueError("flakiness must be in [0, 1]")
        if not 0.0 <= self.stage_in_failure_rate <= 1.0:
            raise ValueError("stage_in_failure_rate must be in [0, 1]")
        for start, end in self.outages:
            if end < start:
                raise ValueError(f"outage window ({start}, {end}) ends before it starts")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be >= 1.0 (it multiplies service time)")
        if self.slow_sigma < 0.0:
            raise ValueError("slow_sigma must be non-negative")
        if self.slow_max_factor < self.slow_factor:
            raise ValueError("slow_max_factor must be >= slow_factor")
        if self.slow_wall_unit_s < 0.0 or self.slow_wall_cap_s < 0.0:
            raise ValueError("slow wall-time knobs must be non-negative")

    @property
    def slow_enabled(self) -> bool:
        return self.slow_factor > 1.0 or self.slow_sigma > 0.0


@dataclass(frozen=True)
class RlsFaultSpec:
    """How the Replica Location Service misbehaves.

    ``lookup_timeout_rate`` / ``max_timeouts``
        Probability that a lookup/exists call times out transiently, and
        a cap on the total number of injected timeouts (``None`` =
        unbounded).
    ``stale_lfns``
        LFN substrings whose *first registered replica* should be turned
        stale by the chaos harness before the run: the mapping stays in
        the catalog but the bytes at the PFN are deleted, exercising the
        verify-unregister-failover path.
    """

    lookup_timeout_rate: float = 0.0
    max_timeouts: int | None = None
    stale_lfns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.lookup_timeout_rate <= 1.0:
            raise ValueError("lookup_timeout_rate must be in [0, 1]")
        if self.max_timeouts is not None and self.max_timeouts < 0:
            raise ValueError("max_timeouts must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """The full declarative chaos configuration for one run.

    ``recoverable`` is the plan author's *claim* about the profile: the
    chaos harness asserts byte-identical output when it is ``True`` and
    asserts graceful degradation when it is ``False``.
    """

    seed: int = DEMO_SEED
    services: dict[str, ServiceFaultSpec] = field(default_factory=dict)
    sites: dict[str, SiteFaultSpec] = field(default_factory=dict)
    rls: RlsFaultSpec = field(default_factory=RlsFaultSpec)
    recoverable: bool = True

    def __post_init__(self) -> None:
        unknown = set(self.services) - set(SERVICE_STREAMS)
        if unknown:
            raise ValueError(
                f"unknown service fault streams: {sorted(unknown)}; "
                f"valid streams: {SERVICE_STREAMS}"
            )

    def injector(self) -> FaultInjector:
        """Compile this plan into a thread-safe runtime injector."""
        return FaultInjector(self)


class FaultInjector:
    """Runtime fault oracle compiled from a :class:`FaultPlan`.

    Thread-safe: the per-stream counters are guarded by one lock (the
    counter streams are only used from single-threaded call sites, but a
    shared injector may be consulted from the executor pool for
    identity-keyed draws, which are lock-free and stateless).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._service_calls: dict[str, int] = {}
        self._service_faults: dict[str, int] = {}
        self._rls_calls = 0
        self._rls_timeouts = 0
        self._injected: dict[tuple[str, str], int] = {}

    # -- bookkeeping -------------------------------------------------------

    def _record(self, stream: str, action: str) -> None:
        key = (stream, action)
        self._injected[key] = self._injected.get(key, 0) + 1

    def injected(self) -> dict[str, int]:
        """Snapshot ``{"stream/action": count}`` of every injected fault."""
        with self._lock:
            return {
                f"{stream}/{action}": count
                for (stream, action), count in sorted(self._injected.items())
            }

    # -- VO service faults -------------------------------------------------

    def service_action(self, stream: str) -> str:
        """Fate of the next call on ``stream``: one of SERVICE_ACTIONS.

        Counter-based: the n-th call of a stream draws from
        ``derive_rng(seed, "fault", stream, n)`` — independent of wall
        time, thread identity and everything else.
        """
        spec = self.plan.services.get(stream)
        if spec is None:
            return "ok"
        with self._lock:
            n = self._service_calls.get(stream, 0)
            self._service_calls[stream] = n + 1
            faults = self._service_faults.get(stream, 0)
            if spec.max_faults is not None and faults >= spec.max_faults:
                return "ok"
            draw = float(derive_rng(self.plan.seed, "fault", stream, n).random())
            action = "ok"
            threshold = spec.timeout_rate
            if draw < threshold:
                action = "timeout"
            elif draw < (threshold := threshold + spec.error_rate):
                action = "error"
            elif draw < (threshold := threshold + spec.malformed_rate):
                action = "malformed"
            elif draw < threshold + spec.partial_rate:
                action = "partial"
            if action != "ok":
                self._service_faults[stream] = faults + 1
                self._record(stream, action)
            return action

    def service_fault_is_permanent(self, stream: str) -> bool:
        spec = self.plan.services.get(stream)
        return bool(spec is not None and spec.permanent)

    # -- Grid site faults --------------------------------------------------

    def site_attempt_fails(
        self, site: str, node_id: str, attempt: int, now: float | None = None
    ) -> bool:
        """Should this node attempt on ``site`` fail?

        Identity-keyed: the draw depends only on ``(site, node_id,
        attempt)`` so concurrent executors get the same schedule in every
        run.  ``now`` (sim-clock seconds) activates outage windows; the
        local executor passes ``None`` and only sees
        ``outage_attempts`` + ``flakiness``.
        """
        spec = self.plan.sites.get(site)
        if spec is None:
            return False
        if 0 < attempt <= spec.outage_attempts:
            with self._lock:
                self._record(f"site:{site}", "outage")
            return True
        if now is not None:
            for start, end in spec.outages:
                if start <= now <= end:
                    with self._lock:
                        self._record(f"site:{site}", "outage-window")
                    return True
        if spec.flakiness > 0.0:
            draw = float(
                derive_rng(
                    self.plan.seed, "site-flake", site, node_id, attempt
                ).random()
            )
            if draw < spec.flakiness:
                with self._lock:
                    self._record(f"site:{site}", "flake")
                return True
        return False

    def site_slowdown(self, site: str, node_id: str, attempt: int) -> float:
        """Service-time multiplier (>= 1.0) for this attempt on ``site``.

        Deterministic heavy tail: ``slow_factor × lognormal(0,
        slow_sigma)`` clipped to ``[1, slow_max_factor]``, drawn from an
        identity-keyed stream so a given attempt is equally slow in every
        run and under any executor interleaving.  Sites without a slow
        spec — and the ``faults is None`` fast path in the executors —
        cost nothing.
        """
        spec = self.plan.sites.get(site)
        if spec is None or not spec.slow_enabled:
            return 1.0
        rng = derive_rng(self.plan.seed, "site-slow", site, node_id, attempt)
        factor = spec.slow_factor * float(rng.lognormal(0.0, spec.slow_sigma)) if spec.slow_sigma > 0 else spec.slow_factor
        factor = min(max(1.0, factor), spec.slow_max_factor)
        if factor > 1.0:
            with self._lock:
                self._record(f"site:{site}", "slow")
        return factor

    def site_wall_delay(self, site: str, node_id: str, attempt: int) -> float:
        """Real seconds the local executor should stall this attempt.

        ``min(slow_wall_cap_s, (slowdown - 1) × slow_wall_unit_s)`` —
        the local engine feels the same deterministic tail shape as the
        simulator, scaled down to test-friendly wall time.  A DAG runs
        its nodes one at a time, so a job's stalls add up in series.
        """
        spec = self.plan.sites.get(site)
        if spec is None or not spec.slow_enabled or spec.slow_wall_unit_s <= 0.0:
            return 0.0
        factor = self.site_slowdown(site, node_id, attempt)
        return min(spec.slow_wall_cap_s, (factor - 1.0) * spec.slow_wall_unit_s)

    def transfer_fails(self, site: str, node_id: str, attempt: int) -> bool:
        """Should this stage-in/out transfer touching ``site`` fail?"""
        spec = self.plan.sites.get(site)
        if spec is None or spec.stage_in_failure_rate == 0.0:
            return False
        draw = float(
            derive_rng(self.plan.seed, "xfer-flake", site, node_id, attempt).random()
        )
        if draw < spec.stage_in_failure_rate:
            with self._lock:
                self._record(f"site:{site}", "transfer")
            return True
        return False

    # -- RLS faults --------------------------------------------------------

    def rls_lookup_times_out(self) -> bool:
        """Should the next RLS lookup/exists call time out transiently?"""
        spec = self.plan.rls
        if spec.lookup_timeout_rate == 0.0:
            return False
        with self._lock:
            n = self._rls_calls
            self._rls_calls += 1
            if spec.max_timeouts is not None and self._rls_timeouts >= spec.max_timeouts:
                return False
            draw = float(derive_rng(self.plan.seed, "fault", "rls-lookup", n).random())
            if draw < spec.lookup_timeout_rate:
                self._rls_timeouts += 1
                self._record("rls", "lookup-timeout")
                return True
            return False
