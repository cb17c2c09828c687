"""``repro.faults`` — deterministic chaos-engineering fault injection.

The reproduction's execution layer already honoured one failure knob
(``forced_failures`` on the Condor engines); everything else — the VO
service clients, the RLS, GRAM submission, stage-in transfers — was
assumed perfect.  Production Grid astronomy is the opposite: transient
archive timeouts, stale replica catalogs and flaky sites are the norm.

This package makes every subsystem *injectable with faults*:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (frozen, declarative
  description of what should break, how often, and for how long) and the
  :class:`FaultInjector` it compiles to.  All draws derive from
  :func:`~repro.utils.rng.derive_rng` label paths, so a fault schedule is
  bit-identical across runs and process pools.  A ``None`` plan is the
  default everywhere and costs nothing — not even an attribute test on
  most hot paths, because the fault hooks are only installed when a plan
  is present.
* :mod:`repro.faults.profiles` — named, curated fault profiles used by the
  chaos CLI and CI: ``recoverable`` (the canonical profile the recovery
  invariant is asserted against), ``degraded-archives`` and ``grid-down``.
* :mod:`repro.faults.chaos` — the chaos harness: run a campaign twice
  (fault-free and under a profile) and check the recovery invariant —
  byte-identical merged VOTables for recoverable profiles, graceful
  quorum-annotated degradation for unrecoverable ones.

See ``docs/resilience.md`` for the fault taxonomy and the pairing between
each fault family and the mechanism that absorbs it.
"""

from __future__ import annotations

from repro.faults.plan import (
    FaultInjector,
    FaultPlan,
    RlsFaultSpec,
    ServiceFaultSpec,
    SiteFaultSpec,
)
from repro.faults.profiles import (
    CANONICAL_RECOVERABLE_PROFILE,
    get_profile,
)

__all__ = [
    "CANONICAL_RECOVERABLE_PROFILE",
    "FaultInjector",
    "FaultPlan",
    "RlsFaultSpec",
    "ServiceFaultSpec",
    "SiteFaultSpec",
    "get_profile",
]
