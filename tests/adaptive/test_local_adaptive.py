"""Real-executor speculation: a wall-delayed site triggers a duplicate,
the result stays byte-identical, and RLS is registered exactly once."""

from __future__ import annotations

from repro.adaptive import AdaptiveController, SpeculationPolicy
from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.faults.plan import FaultPlan, SiteFaultSpec
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import (
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)

#: Deterministic 0.45s stall per compute attempt on U (sigma=0 pins the
#: lognormal at 1, so factor is exactly 4: (4-1) x 0.15s, under the cap).
SLOW_U = FaultPlan(
    seed=11,
    sites={
        "U": SiteFaultSpec(
            slow_factor=4.0,
            slow_sigma=0.0,
            slow_wall_unit_s=0.15,
            slow_wall_cap_s=1.0,
        )
    },
    recoverable=True,
)


def environment():
    sites = {name: StorageSite(name) for name in ("A", "B", "U")}
    rls = ReplicaLocationService()
    for name in sites:
        rls.add_site(name)
    registry = ExecutableRegistry()

    def double(job: AbstractJob, inputs: dict[str, bytes]) -> dict[str, bytes]:
        (content,) = inputs.values()
        return {job.outputs[0]: content * 2}

    registry.register("double", double)
    return sites, rls, registry


def slow_site_workflow(sites, n: int = 3) -> ConcreteWorkflow:
    """n independent double() jobs planned on the slow site U, their
    inputs staged from A, the first output registered in RLS."""
    cw = ConcreteWorkflow()
    for i in range(n):
        cw.add(
            TransferNode(
                f"x{i}", f"b{i}", TransferKind.STAGE_IN,
                "A", sites["A"].pfn_for(f"b{i}"),
                "U", sites["U"].pfn_for(f"b{i}"),
            )
        )
        cw.add(
            ComputeNode(
                f"j{i}",
                AbstractJob(f"d{i}", "double", (f"b{i}",), (f"c{i}",)),
                "U",
                "/bin/double",
            )
        )
        cw.link(f"x{i}", f"j{i}")
    cw.add(RegistrationNode("r0", "c0", sites["U"].pfn_for("c0"), "U"))
    cw.link("j0", "r0")
    return cw


def warm_controller() -> AdaptiveController:
    """History that makes U's stall a straggler: the healthy sites run
    double() in ~10ms, so the p95 budget is ~15ms."""
    controller = AdaptiveController(speculation=SpeculationPolicy())
    for _ in range(6):
        controller.estimator.observe("A", "double", 0.01)
    return controller


class TestLocalSpeculation:
    def test_duplicate_fires_and_bytes_identical(self):
        # baseline: no faults, no adaptive layer
        sites, rls, registry = environment()
        for i in range(3):
            sites["A"].put(sites["A"].pfn_for(f"b{i}"), f"v{i}".encode())
        baseline = LocalExecutor(sites, registry, rls)
        report = baseline.execute(slow_site_workflow(sites))
        assert report.succeeded
        expected = {
            f"c{i}": sites["U"].get(sites["U"].pfn_for(f"c{i}")) for i in range(3)
        }

        # slow U + armed speculation
        sites, rls, registry = environment()
        for i in range(3):
            sites["A"].put(sites["A"].pfn_for(f"b{i}"), f"v{i}".encode())
        controller = warm_controller()
        executor = LocalExecutor(
            sites, registry, rls,
            faults=SLOW_U.injector(),
            adaptive=controller,
        )
        report = executor.execute(slow_site_workflow(sites))
        assert report.succeeded
        assert report.speculated >= 1
        counters = controller.tracker.snapshot()
        assert report.speculated == counters["launched"]
        # first result won, loser charged: every launch ends as win or waste
        assert counters["won"] + counters["wasted"] >= report.speculated
        for i in range(3):
            assert sites["U"].get(sites["U"].pfn_for(f"c{i}")) == expected[f"c{i}"]

    def test_registration_never_duplicated(self):
        sites, rls, registry = environment()
        for i in range(3):
            sites["A"].put(sites["A"].pfn_for(f"b{i}"), f"v{i}".encode())
        executor = LocalExecutor(
            sites, registry, rls,
            faults=SLOW_U.injector(),
            adaptive=warm_controller(),
        )
        report = executor.execute(slow_site_workflow(sites))
        assert report.succeeded
        # speculation raced compute copies, but c0 is registered once
        assert len(rls.lookup("c0")) == 1

    def test_disarmed_layer_changes_nothing(self):
        sites, rls, registry = environment()
        for i in range(3):
            sites["A"].put(sites["A"].pfn_for(f"b{i}"), f"v{i}".encode())
        executor = LocalExecutor(
            sites, registry, rls,
            adaptive=AdaptiveController(speculation=None),
        )
        report = executor.execute(slow_site_workflow(sites))
        assert report.succeeded
        assert report.speculated == 0
        assert sites["U"].get(sites["U"].pfn_for("c1")) == b"v1v1"
