"""Admission control and fair-share ordering.

Admission control answers "may this submission enter the queue at all?"
(global backpressure + per-tenant quota).  The fair-share scheduler answers
"whose job runs next?" — the usage policy Condor's user priorities
implement on real pools, reduced to its arithmetic core (every tenant has
an equal share):

* every attempt's cost (slot-seconds) is charged to its user as the
  journal line that ends the attempt is applied: ``usage_u += cost``
  (the ledger is :attr:`~repro.scheduler.journal.JournalState.usage`, so
  it replays exactly);
* a user's **fair-share debt** is ``usage_u - min_v usage_v`` (0 for the
  least-served active user);
* dispatch picks the eligible queued job of the user with the *lowest*
  usage (ties: user name), then highest priority, then FIFO.

Under saturation this interleaves tenants regardless of how bursty their
submissions are, which is what bounds every user's median wait near the
global median.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.errors import QueueFullError, QuotaExceededError
from repro.scheduler.job import JobRecord


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds enforced at submit() time."""

    #: Global backpressure: queued (not yet running) jobs across all users.
    max_queue_depth: int = 64
    #: Per-tenant quota: queued + running jobs for one user.
    max_active_per_user: int = 16

    def admit(self, user: str, queue_depth: int, active_for_user: int) -> None:
        """Raise when the submission must be rejected."""
        if queue_depth >= self.max_queue_depth:
            raise QueueFullError(
                f"queue depth {queue_depth} at bound {self.max_queue_depth}; "
                "retry after the backlog drains"
            )
        if active_for_user >= self.max_active_per_user:
            raise QuotaExceededError(
                f"user {user!r} has {active_for_user} active job(s), "
                f"quota {self.max_active_per_user}"
            )


class FairShareScheduler:
    """Equal-share fair-share pick over a usage ledger.

    Stateless: ``usage`` is always the journal state's ledger
    (:attr:`JournalState.usage`), so the ranking a restarted manager
    computes is the one the dead one would have.
    """

    def debts(self, users: Iterable[str], usage: Mapping[str, float]) -> dict[str, float]:
        """Fair-share debt per user: usage above the floor."""
        charged = {u: usage.get(u, 0.0) for u in users}
        if not charged:
            return {}
        floor = min(charged.values())
        return {u: used - floor for u, used in charged.items()}

    # -- the pick ---------------------------------------------------------------
    def pick(
        self,
        queued: Sequence[JobRecord],
        usage: Mapping[str, float],
        eligible: Callable[[JobRecord], bool] = lambda _: True,
    ) -> JobRecord | None:
        """The next job to dispatch, or ``None`` when nothing is eligible.

        Users are visited lowest-usage first; within a user, highest
        priority then FIFO.  A user whose jobs are all ineligible
        (signature in flight, backoff gate closed) is skipped rather than
        blocking the queue — that is the no-starvation property.
        """
        by_user: dict[str, list[JobRecord]] = {}
        for record in queued:
            by_user.setdefault(record.spec.user, []).append(record)
        order = sorted(by_user, key=lambda u: (usage.get(u, 0.0), u))
        for user in order:
            jobs = sorted(by_user[user], key=lambda r: (-r.spec.priority, r.seq))
            for record in jobs:
                if eligible(record):
                    return record
        return None
