"""Pool-slot leases: bounded concurrency with per-tenant caps.

The demonstration Grid has a fixed number of Condor slots (isi 12 + uwisc
20 + fnal 16 = 48).  Each dispatched job leases a fixed number of slots for
its lifetime; the lease manager enforces both the global bound and a
per-tenant cap, so a user who floods the queue can saturate at most their
cap while other tenants' jobs keep being placed.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from repro.core.errors import SchedulerError


@dataclass(frozen=True)
class Lease:
    """A live claim on pool slots."""

    lease_id: int
    user: str
    slots: int


class SlotLeaseManager:
    """Thread-safe slot accounting with non-blocking acquire."""

    def __init__(self, total_slots: int, per_user_cap: int | None = None) -> None:
        if total_slots < 1:
            raise ValueError(f"total_slots must be positive, got {total_slots}")
        if per_user_cap is not None and per_user_cap < 1:
            raise ValueError(f"per_user_cap must be positive, got {per_user_cap}")
        self.total_slots = total_slots
        self.per_user_cap = per_user_cap if per_user_cap is not None else total_slots
        self._lock = threading.Lock()
        self._in_use = 0
        self._held: dict[str, int] = {}
        self._live: dict[int, Lease] = {}
        self._ids = itertools.count(1)

    # -- queries ----------------------------------------------------------------
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    def _check(self, user: str, slots: int) -> None:
        if slots < 1:
            raise SchedulerError(f"lease must claim at least one slot, got {slots}")
        if slots > self.total_slots:
            raise SchedulerError(
                f"lease of {slots} slot(s) can never be satisfied: "
                f"pool total is {self.total_slots}"
            )
        if slots > self.per_user_cap:
            raise SchedulerError(
                f"lease of {slots} slot(s) exceeds the per-tenant cap "
                f"{self.per_user_cap}"
            )

    def _fits(self, user: str, slots: int) -> bool:
        return (
            self._in_use + slots <= self.total_slots
            and self._held.get(user, 0) + slots <= self.per_user_cap
        )

    def can_acquire(self, user: str, slots: int = 1) -> bool:
        """Would :meth:`try_acquire` succeed right now?"""
        self._check(user, slots)
        with self._lock:
            return self._fits(user, slots)

    # -- acquisition ------------------------------------------------------------
    def _grant(self, user: str, slots: int) -> Lease:
        lease = Lease(next(self._ids), user, slots)
        self._in_use += slots
        self._held[user] = self._held.get(user, 0) + slots
        self._live[lease.lease_id] = lease
        return lease

    def try_acquire(self, user: str, slots: int = 1) -> Lease | None:
        """Non-blocking acquire; ``None`` when the bound or cap is hit."""
        self._check(user, slots)
        with self._lock:
            if not self._fits(user, slots):
                return None
            return self._grant(user, slots)

    def release(self, lease: Lease) -> None:
        with self._lock:
            if lease.lease_id not in self._live:
                raise SchedulerError(f"lease {lease.lease_id} is not live")
            del self._live[lease.lease_id]
            self._in_use -= lease.slots
            held = self._held.get(lease.user, 0) - lease.slots
            if held > 0:
                self._held[lease.user] = held
            else:
                self._held.pop(lease.user, None)
