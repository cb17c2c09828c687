"""The slow-site chaos profile: deterministic heavy-tail slowdown on
uwisc, latency never changes bytes."""

from __future__ import annotations

import pytest

from repro.faults.chaos import run_chaos_campaign
from repro.faults.plan import FaultInjector, SiteFaultSpec
from repro.faults.profiles import get_profile


class TestProfileShape:
    def test_registered_and_recoverable(self):
        plan = get_profile("slow-site", seed=5)
        assert plan.recoverable is True
        assert set(plan.sites) == {"uwisc"}
        spec = plan.sites["uwisc"]
        assert spec.slow_enabled
        assert spec.slow_factor == 4.0
        assert spec.slow_wall_unit_s > 0.0  # real executor feels it too
        # nothing ever *fails*: breakers must never trip on this profile
        assert not plan.services
        assert spec.fail_rate == 0.0 if hasattr(spec, "fail_rate") else True

    def test_spec_defaults_are_inert(self):
        assert not SiteFaultSpec().slow_enabled


class TestSlowdownDraws:
    def injector(self, seed: int = 5) -> FaultInjector:
        return get_profile("slow-site", seed=seed).injector()

    def test_identity_keyed_and_deterministic(self):
        a = self.injector()
        b = self.injector()
        for node in ("gm-1", "gm-2", "gm-3"):
            assert a.site_slowdown("uwisc", node, 1) == b.site_slowdown(
                "uwisc", node, 1
            )

    def test_bounded_heavy_tail(self):
        injector = self.injector()
        draws = [
            injector.site_slowdown("uwisc", f"gm-{i}", 1) for i in range(200)
        ]
        assert all(1.0 <= d <= 40.0 for d in draws)
        assert len(set(draws)) > 100  # a distribution, not a constant
        assert max(draws) > 8.0  # a heavy tail, not a constant stretch

    def test_attempt_changes_the_draw(self):
        injector = self.injector()
        first = injector.site_slowdown("uwisc", "gm-1", 1)
        second = injector.site_slowdown("uwisc", "gm-1", 2)
        assert first != second

    def test_healthy_sites_cost_nothing(self):
        injector = self.injector()
        assert injector.site_slowdown("isi", "gm-1", 1) == 1.0
        assert injector.site_wall_delay("isi", "gm-1", 1) == 0.0

    def test_wall_delay_is_capped(self):
        injector = self.injector()
        delays = [
            injector.site_wall_delay("uwisc", f"gm-{i}", 1) for i in range(100)
        ]
        assert all(0.0 <= d <= 0.4 for d in delays)
        assert any(d > 0.0 for d in delays)

    def test_seed_changes_schedule(self):
        assert [
            self.injector(1).site_slowdown("uwisc", f"gm-{i}", 1) for i in range(10)
        ] != [
            self.injector(2).site_slowdown("uwisc", f"gm-{i}", 1) for i in range(10)
        ]


class TestByteIdentity:
    def test_campaign_recovers_byte_identical(self):
        """The harness asserts merged output equals the fault-free twin's
        bytes for recoverable profiles — latency must never change them."""
        report = run_chaos_campaign(profile="slow-site")
        assert report.recovered
        assert report.profile == "slow-site"


class TestUnknownProfile:
    def test_unknown_profile_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            get_profile("no-such-profile", seed=1)
