"""Per-site circuit breakers and the site-health tracker.

A Grid site that just dropped three stage-ins in a row will very likely
drop the fourth: the paper's production ancestors (AstroGrid-D, Montage on
the TeraGrid) all converged on *stop scheduling onto sick sites* as the
single highest-leverage resilience mechanism.  We model it with the
classic three-state breaker:

``CLOSED``
    Healthy.  Calls flow; consecutive failures are counted.
``OPEN``
    Tripped after ``failure_threshold`` consecutive failures.  The site
    is blacklisted for ``recovery_time_s`` (of whatever clock the owner
    injects — wall for the local executor, sim-clock for the simulator).
``HALF_OPEN``
    The cooldown elapsed; one probe is allowed.  Success closes the
    breaker, failure re-opens it and restarts the cooldown.

The :class:`SiteHealthTracker` owns one breaker per site and is the
object shared between the executors (which report outcomes) and
``HealthAwareSiteSelector`` (which consults ``available()`` at planning
time).  All methods are thread-safe: local executors report from the
workload manager's concurrent job threads.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Callable, Iterable

from repro import telemetry


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """One site's failure accountant.

    Not thread-safe on its own — :class:`SiteHealthTracker` serialises
    access; use the tracker unless you have a single-threaded owner.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        recovery_time_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time_s < 0:
            raise ValueError("recovery_time_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self._clock = clock
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.transitions = 0

    @property
    def state(self) -> BreakerState:
        self._maybe_half_open()
        return self._state

    def allows(self) -> bool:
        """May a call be routed through this breaker right now?"""
        self._maybe_half_open()
        return self._state is not BreakerState.OPEN

    def record_success(self) -> None:
        self._maybe_half_open()
        self._consecutive_failures = 0
        if self._state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self._maybe_half_open()
        if self._state is BreakerState.HALF_OPEN:
            # The probe failed: straight back to OPEN, cooldown restarts.
            self._consecutive_failures = self.failure_threshold
            self._open()
            return
        self._consecutive_failures += 1
        if (
            self._state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open()

    # -- internals ---------------------------------------------------------

    def _open(self) -> None:
        self._opened_at = self._clock()
        self._transition(BreakerState.OPEN)

    def _maybe_half_open(self) -> None:
        if (
            self._state is BreakerState.OPEN
            and self._clock() - self._opened_at >= self.recovery_time_s
        ):
            self._transition(BreakerState.HALF_OPEN)

    def _transition(self, new: BreakerState) -> None:
        if new is not self._state:
            self._state = new
            self.transitions += 1


class SiteHealthTracker:
    """Shared health ledger: one :class:`CircuitBreaker` per Grid site.

    Executors call :meth:`record_success` / :meth:`record_failure` as node
    attempts finish; the planner's ``HealthAwareSiteSelector`` calls
    :meth:`available` to filter candidates.  A site whose breaker is OPEN
    is blacklisted until its cooldown lapses into HALF_OPEN, at which
    point the selector may route a single probe job back to it.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        recovery_time_s: float = 60.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_time_s = recovery_time_s
        self._clock = clock
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def _breaker(self, site: str) -> CircuitBreaker:
        breaker = self._breakers.get(site)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.failure_threshold,
                recovery_time_s=self.recovery_time_s,
                clock=self._clock,
            )
            self._breakers[site] = breaker
        return breaker

    def record_success(self, site: str) -> None:
        with self._lock:
            breaker = self._breaker(site)
            before = breaker.state
            breaker.record_success()
            after = breaker.state
        self._note_transition(site, before, after)

    def record_failure(self, site: str) -> None:
        with self._lock:
            breaker = self._breaker(site)
            before = breaker.state
            breaker.record_failure()
            after = breaker.state
        self._note_transition(site, before, after)
        telemetry.count("resilience_site_failures_total", site=site)

    def available(self, site: str) -> bool:
        """Is this site currently schedulable (breaker not OPEN)?

        Unknown sites are healthy by definition — the tracker only learns
        about a site when an executor reports an outcome for it.
        """
        with self._lock:
            breaker = self._breakers.get(site)
            return True if breaker is None else breaker.allows()

    def blacklisted(self) -> tuple[str, ...]:
        """Sites whose breaker is currently OPEN, sorted for determinism."""
        with self._lock:
            return tuple(
                sorted(
                    site
                    for site, breaker in self._breakers.items()
                    if breaker.state is BreakerState.OPEN
                )
            )

    def filter_available(self, sites: Iterable[str]) -> list[str]:
        """Order-preserving subset of ``sites`` that are schedulable."""
        with self._lock:
            return [
                site
                for site in sites
                if (b := self._breakers.get(site)) is None or b.allows()
            ]

    def states(self) -> dict[str, str]:
        """Snapshot ``{site: state}`` for reports and tests."""
        with self._lock:
            return {
                site: breaker.state.value
                for site, breaker in sorted(self._breakers.items())
            }

    def _note_transition(
        self, site: str, before: BreakerState, after: BreakerState
    ) -> None:
        if before is after:
            return
        telemetry.count(
            "resilience_breaker_transitions_total", site=site, to=after.value
        )
        telemetry.gauge_set(
            "resilience_breaker_open",
            1.0 if after is BreakerState.OPEN else 0.0,
            site=site,
        )
