"""Shared retry policy: exponential backoff + deterministic jitter + deadline.

One policy object serves every caller that talks to something unreliable —
VO service clients (cone search, SIA, cutout), RLS lookups, GRAM submission
and the scheduler's job requeue.  Centralising the policy means the chaos
harness has exactly one knob to reason about, and the classification of
*what is worth retrying* lives in exactly one place
(:func:`repro.core.errors.is_transient`).

Design constraints, in order:

1. **Determinism.**  Jitter is drawn from :func:`~repro.utils.rng.derive_rng`
   seeded with ``(seed, "retry", label, attempt)`` — the same call site
   retried in two different runs (or two different processes of a pool)
   backs off by the same amounts.  No global RNG state is touched.
2. **No real sleeping by default.**  ``retry_call(..., sleep=None)`` computes
   the backoff schedule but does not block; callers that carry a virtual
   clock (the transport :class:`~repro.services.transport.CostMeter`, the
   Condor simulator) charge the delay through ``on_backoff`` instead.  Pass
   ``sleep=time.sleep`` only at a genuinely wall-clock boundary.
3. **Zero cost on success.**  The first attempt runs outside any loop
   machinery beyond a ``try``; a policy of ``max_attempts=1`` behaves
   exactly like a bare call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.core.errors import is_transient
from repro.utils.rng import DEMO_SEED, derive_rng

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for transient failures.

    The delay before retry ``k`` (1-based: the delay after the ``k``-th
    failed attempt) is::

        delay(k) = min(base_delay_s * multiplier**(k-1), max_delay_s)
                   * (1 + jitter * u_k),   u_k ~ Uniform[-1, 1)

    and the whole ladder is abandoned once the *cumulative* scheduled
    delay would exceed ``deadline_s`` (if set).
    """

    max_attempts: int = 3
    base_delay_s: float = 0.5
    multiplier: float = 2.0
    max_delay_s: float = 30.0
    jitter: float = 0.1
    deadline_s: float | None = None
    seed: int = DEMO_SEED

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_for(self, attempt: int, label: str = "") -> float:
        """Backoff delay (seconds) after failed attempt ``attempt`` (1-based)."""
        base = min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )
        if self.jitter == 0.0 or base == 0.0:
            return base
        rng = derive_rng(self.seed, "retry", label, attempt)
        return base * (1.0 + self.jitter * float(rng.uniform(-1.0, 1.0)))


#: The policy every portal, compute-service and RLS call runs under.  Three attempts, 0.5 s → 1 s backoff,
#: deterministic 10% jitter — enough to ride out the injected transient
#: faults of every recoverable profile while keeping virtual wall cost low.
DEFAULT_RETRY_POLICY = RetryPolicy()


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy,
    *,
    label: str = "",
    classify: Callable[[BaseException], bool] = is_transient,
    sleep: Callable[[float], None] | None = None,
    on_backoff: Callable[[int, float, BaseException], None] | None = None,
) -> T:
    """Call ``fn`` under ``policy``, retrying transient failures.

    Parameters
    ----------
    fn:
        Zero-argument callable; wrap arguments with a lambda/partial.
    policy:
        The backoff schedule; ``max_attempts=1`` forwards the call
        verbatim.
    label:
        Stable identity of the call site (e.g. ``"sia-query/abell-2151"``)
        — keys the deterministic jitter stream and telemetry.
    classify:
        Predicate deciding whether an exception is worth retrying.
        Defaults to :func:`repro.core.errors.is_transient`; anything it
        rejects propagates immediately.
    sleep:
        Real-sleep hook.  ``None`` (default) computes but does not serve
        the delay — callers on a virtual clock charge it via ``on_backoff``.
    on_backoff:
        ``on_backoff(attempt, delay_s, exc)`` fires before each retry —
        the hook where the transport meter charges failed-attempt cost and
        telemetry counts ``resilience_retries_total``.

    Raises
    ------
    BaseException
        The last failure, once attempts or the deadline are exhausted, or
        immediately for non-transient failures.
    """
    if policy.max_attempts == 1:
        return fn()

    elapsed = 0.0
    attempt = 1
    while True:
        try:
            return fn()
        except BaseException as exc:  # noqa: BLE001 - classified below
            if attempt >= policy.max_attempts or not classify(exc):
                raise
            delay = policy.delay_for(attempt, label)
            if policy.deadline_s is not None and elapsed + delay > policy.deadline_s:
                raise
            elapsed += delay
            if on_backoff is not None:
                on_backoff(attempt, delay, exc)
            if sleep is not None and delay > 0.0:
                sleep(delay)
            attempt += 1
