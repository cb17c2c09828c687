"""Tests for pool-slot leases."""

from __future__ import annotations

import pytest

from repro.core.errors import SchedulerError
from repro.scheduler.leases import SlotLeaseManager


class TestSlotLeaseManager:
    def test_accounting(self):
        leases = SlotLeaseManager(8)
        a = leases.try_acquire("alice", 3)
        assert leases.in_use() == 3 and not leases.can_acquire("bob", 6)
        leases.release(a)
        assert leases.in_use() == 0 and leases.can_acquire("alice", 8)

    def test_global_bound(self):
        leases = SlotLeaseManager(4)
        leases.try_acquire("alice", 2)
        leases.try_acquire("bob", 2)
        assert leases.try_acquire("carol", 1) is None

    def test_per_user_cap(self):
        leases = SlotLeaseManager(10, per_user_cap=4)
        leases.try_acquire("alice", 4)
        # alice is at her cap; the pool still has room for others.
        assert leases.try_acquire("alice", 1) is None
        assert leases.try_acquire("bob", 4) is not None

    def test_can_acquire_matches_try_acquire(self):
        leases = SlotLeaseManager(2)
        assert leases.can_acquire("alice", 2)
        leases.try_acquire("alice", 2)
        assert not leases.can_acquire("bob", 1)

    def test_impossible_requests_rejected(self):
        leases = SlotLeaseManager(4, per_user_cap=2)
        with pytest.raises(SchedulerError):
            leases.try_acquire("alice", 0)
        with pytest.raises(SchedulerError):
            leases.try_acquire("alice", 5)  # larger than the pool
        with pytest.raises(SchedulerError):
            leases.try_acquire("alice", 3)  # larger than the cap

    def test_double_release_rejected(self):
        leases = SlotLeaseManager(2)
        lease = leases.try_acquire("alice", 1)
        leases.release(lease)
        with pytest.raises(SchedulerError):
            leases.release(lease)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotLeaseManager(0)
        with pytest.raises(ValueError):
            SlotLeaseManager(4, per_user_cap=0)
