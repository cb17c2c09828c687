"""Tests for fault plans, spec validation and injector determinism."""

from __future__ import annotations

import pytest

from repro.faults.plan import (
    SERVICE_ACTIONS,
    FaultInjector,
    FaultPlan,
    RlsFaultSpec,
    ServiceFaultSpec,
    SiteFaultSpec,
)


class TestSpecValidation:
    def test_rates_must_sum_within_unit_interval(self):
        with pytest.raises(ValueError, match="sum"):
            ServiceFaultSpec(timeout_rate=0.6, error_rate=0.6)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ServiceFaultSpec(timeout_rate=-0.1, error_rate=0.5)

    def test_negative_max_faults_rejected(self):
        with pytest.raises(ValueError, match="max_faults"):
            ServiceFaultSpec(timeout_rate=0.1, max_faults=-1)

    def test_site_flakiness_bounds(self):
        with pytest.raises(ValueError, match="flakiness"):
            SiteFaultSpec(flakiness=1.5)

    def test_site_outage_window_ordering(self):
        with pytest.raises(ValueError, match="ends before it starts"):
            SiteFaultSpec(outages=((10.0, 5.0),))

    def test_rls_rate_bounds(self):
        with pytest.raises(ValueError, match="lookup_timeout_rate"):
            RlsFaultSpec(lookup_timeout_rate=2.0)

    def test_unknown_service_stream_rejected(self):
        with pytest.raises(ValueError, match="unknown service fault streams"):
            FaultPlan(services={"warp-drive": ServiceFaultSpec(timeout_rate=0.1)})

    def test_valid_plan_compiles(self):
        plan = FaultPlan(services={"cone-query": ServiceFaultSpec(timeout_rate=0.5)})
        assert isinstance(plan.injector(), FaultInjector)


def _actions(injector: FaultInjector, stream: str, n: int) -> list[str]:
    return [injector.service_action(stream) for _ in range(n)]


class TestServiceActionDeterminism:
    PLAN = FaultPlan(
        seed=99,
        services={
            "cone-query": ServiceFaultSpec(timeout_rate=0.3, malformed_rate=0.2),
            "sia-query": ServiceFaultSpec(error_rate=0.4),
        },
    )

    def test_two_injectors_same_plan_agree(self):
        a, b = self.PLAN.injector(), self.PLAN.injector()
        assert _actions(a, "cone-query", 50) == _actions(b, "cone-query", 50)
        assert _actions(a, "sia-query", 50) == _actions(b, "sia-query", 50)

    def test_streams_are_independent(self):
        # Interleaving calls across streams must not perturb either schedule.
        a, b = self.PLAN.injector(), self.PLAN.injector()
        serial = _actions(a, "cone-query", 30)
        interleaved = []
        for _ in range(30):
            interleaved.append(b.service_action("cone-query"))
            b.service_action("sia-query")
        assert serial == interleaved

    def test_actions_are_legal(self):
        inj = self.PLAN.injector()
        assert set(_actions(inj, "cone-query", 200)) <= set(SERVICE_ACTIONS)

    def test_different_seeds_differ(self):
        other = FaultPlan(
            seed=100,
            services={"cone-query": ServiceFaultSpec(timeout_rate=0.3, malformed_rate=0.2)},
        )
        assert _actions(self.PLAN.injector(), "cone-query", 100) != _actions(
            other.injector(), "cone-query", 100
        )

    def test_unconfigured_stream_is_always_ok(self):
        inj = self.PLAN.injector()
        assert _actions(inj, "cutout-fetch", 20) == ["ok"] * 20
        assert inj.injected() == {}  # no bookkeeping for unconfigured streams


class TestFaultBudgets:
    def test_max_faults_caps_stream(self):
        plan = FaultPlan(
            services={"cone-query": ServiceFaultSpec(timeout_rate=1.0, max_faults=2)}
        )
        inj = plan.injector()
        fates = _actions(inj, "cone-query", 10)
        assert fates[:2] == ["timeout", "timeout"]
        assert fates[2:] == ["ok"] * 8
        assert inj.injected() == {"cone-query/timeout": 2}

    def test_permanent_flag_reported(self):
        plan = FaultPlan(
            services={
                "xray-query": ServiceFaultSpec(error_rate=1.0, permanent=True),
                "cone-query": ServiceFaultSpec(error_rate=1.0),
            }
        )
        inj = plan.injector()
        assert inj.service_fault_is_permanent("xray-query")
        assert not inj.service_fault_is_permanent("cone-query")
        assert not inj.service_fault_is_permanent("cutout-fetch")

    def test_rls_timeout_budget(self):
        plan = FaultPlan(rls=RlsFaultSpec(lookup_timeout_rate=1.0, max_timeouts=3))
        inj = plan.injector()
        fates = [inj.rls_lookup_times_out() for _ in range(10)]
        assert fates.count(True) == 3
        assert fates[:3] == [True, True, True]
        assert inj.injected() == {"rls/lookup-timeout": 3}


class TestSiteDraws:
    PLAN = FaultPlan(
        seed=7,
        sites={
            "isi": SiteFaultSpec(flakiness=0.4, stage_in_failure_rate=0.4),
            "fnal": SiteFaultSpec(outage_attempts=2, outages=((100.0, 200.0),)),
        },
    )

    def test_identity_keyed_draws_are_order_independent(self):
        # The same (site, node, attempt) key must yield the same verdict no
        # matter how many other draws happened first — the thread-pool
        # determinism contract.
        a, b = self.PLAN.injector(), self.PLAN.injector()
        keys = [("isi", f"n{i}", k) for i in range(10) for k in (1, 2)]
        forward = [a.site_attempt_fails(*key) for key in keys]
        backward = [b.site_attempt_fails(*key) for key in reversed(keys)]
        assert forward == list(reversed(backward))
        assert any(forward) and not all(forward)  # 40% flake: mixed verdicts

    def test_outage_attempts_fail_early_attempts_only(self):
        inj = self.PLAN.injector()
        assert inj.site_attempt_fails("fnal", "j0", 1)
        assert inj.site_attempt_fails("fnal", "j0", 2)
        assert not inj.site_attempt_fails("fnal", "j0", 3)

    def test_outage_window_needs_sim_clock(self):
        inj = self.PLAN.injector()
        assert inj.site_attempt_fails("fnal", "j0", 3, now=150.0)
        assert not inj.site_attempt_fails("fnal", "j0", 3, now=250.0)
        # Without a clock the window is invisible (thread-pool executor).
        assert not inj.site_attempt_fails("fnal", "j0", 3, now=None)

    def test_unknown_site_never_fails(self):
        inj = self.PLAN.injector()
        assert not inj.site_attempt_fails("ufo", "j0", 1)
        assert not inj.transfer_fails("ufo", "j0", 1)

    def test_transfer_draws_deterministic(self):
        a, b = self.PLAN.injector(), self.PLAN.injector()
        keys = [("isi", f"t{i}", 1) for i in range(20)]
        assert [a.transfer_fails(*k) for k in keys] == [
            b.transfer_fails(*k) for k in keys
        ]

    def test_injected_snapshot_labels(self):
        inj = self.PLAN.injector()
        inj.site_attempt_fails("fnal", "j0", 1)
        snapshot = inj.injected()
        assert snapshot == {"site:fnal/outage": 1}
