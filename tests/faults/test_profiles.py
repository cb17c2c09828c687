"""Tests for the named chaos profiles."""

from __future__ import annotations

import pytest

from repro.faults.profiles import (
    CANONICAL_RECOVERABLE_PROFILE,
    get_profile,
)


class TestProfileRegistry:
    def test_available_profiles_sorted(self):
        with pytest.raises(ValueError) as excinfo:
            get_profile("nope")
        names = str(excinfo.value).split("available: ")[1].split(", ")
        assert names == sorted(names)
        assert CANONICAL_RECOVERABLE_PROFILE in names

    def test_unknown_profile_lists_alternatives(self):
        with pytest.raises(ValueError) as excinfo:
            get_profile("nope")
        message = str(excinfo.value)
        for name in ("recoverable", "degraded-archives", "grid-down", "slow-site", "worker-crash"):
            assert name in message

    def test_seed_threads_through(self):
        assert get_profile("recoverable", seed=5).seed == 5
        assert get_profile("degraded-archives", seed=6).seed == 6


class TestProfileClaims:
    def test_canonical_profile_is_recoverable_by_construction(self):
        plan = get_profile(CANONICAL_RECOVERABLE_PROFILE)
        assert plan.recoverable
        # max_faults bounded below the 3-attempt retry ladder on every stream.
        for stream, spec in plan.services.items():
            assert spec.max_faults is not None and spec.max_faults <= 2, stream
            assert not spec.permanent, stream
        # The stale-replica fault and RLS hiccups are bounded too.
        assert plan.rls.max_timeouts is not None
        assert plan.rls.stale_lfns

    def test_degraded_archives_is_unrecoverable_and_permanent(self):
        plan = get_profile("degraded-archives")
        assert not plan.recoverable
        assert plan.services["xray-query"].permanent

    def test_grid_down_covers_every_pool(self):
        plan = get_profile("grid-down")
        assert not plan.recoverable
        assert set(plan.sites) == {"isi", "uwisc", "fnal"}
        for spec in plan.sites.values():
            assert spec.outage_attempts >= 99

    def test_profiles_are_deterministic_objects(self):
        # Frozen dataclasses at the same seed compare equal — the CI
        # byte-identity check leans on this.
        assert get_profile("recoverable", 11) == get_profile("recoverable", 11)
