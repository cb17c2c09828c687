"""``repro.resilience`` — the recovery half of the chaos story.

The :mod:`repro.faults` package breaks things; this package is what
makes the pipeline survive the breakage:

* :mod:`repro.resilience.retry` — the shared retry policy (exponential
  backoff + deterministic jitter + deadline) wrapped around every VO
  service call, RLS lookup and GRAM submission.  Sim-clock aware: the
  default configuration never sleeps for real, so the Condor simulator
  stays deterministic and the test suite stays fast.
* :mod:`repro.resilience.breaker` — per-site circuit breakers
  (closed/open/half-open) aggregated by a :class:`SiteHealthTracker`
  that feeds the planning layer: unhealthy sites are blacklisted by
  ``HealthAwareSiteSelector`` at mapping time so replans route around
  outages instead of rediscovering them.

Both are always on: every demonstration environment retries its
service calls under ``DEFAULT_RETRY_POLICY`` and every
``VirtualDataSystem`` owns a health tracker, so ``repro chaos``
certifies the configuration every served process runs.  On a clean run
neither fires: a success costs one ``try`` frame and a lock-free set
test, and the bytes are the fault-free ones.  See ``docs/resilience.md``
for the taxonomy, the backoff math and the cost gate.
"""

from __future__ import annotations

from repro.resilience.breaker import (
    BreakerState,
    CircuitBreaker,
    SiteHealthTracker,
)
from repro.resilience.retry import (
    DEFAULT_RETRY_POLICY,
    RetryPolicy,
    retry_call,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "SiteHealthTracker",
    "retry_call",
]
