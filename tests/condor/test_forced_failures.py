"""Tests for forced-failure validation and runtime overrides.

``forced_failures`` is the fault-injection knob shared by the simulator
and the real local executor.  A typo'd node id must fail loudly at
execution start (a silently ignored id makes a chaos test vacuously
pass), and an execute-time override must merge over the configured map.
"""

from __future__ import annotations

import pytest

from repro.condor.engine import payload_kind
from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.pool import CondorPool, GridTopology
from repro.condor.simulator import (
    GridSimulator,
    SimulationOptions,
    merge_forced_failures,
)
from repro.core import VirtualDataSystem
from repro.core.errors import ExecutionError
from repro.faults.plan import FaultPlan, SiteFaultSpec
from repro.pegasus.options import PlannerOptions
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import ComputeNode, ConcreteWorkflow


def topo(slots=2) -> GridTopology:
    t = GridTopology()
    t.add_pool(CondorPool("isi", slots=slots, speed=1.0))
    return t


def workflow(n=2) -> ConcreteWorkflow:
    cw = ConcreteWorkflow()
    prev = None
    for i in range(n):
        node = ComputeNode(
            f"j{i}",
            AbstractJob(f"d{i}", "galMorph", (), (f"o{i}",)),
            "isi",
            "/bin/x",
        )
        cw.add(node)
        if prev:
            cw.link(prev, node.node_id)
        prev = node.node_id
    return cw


class TestMergeForcedFailures:
    def test_plain_merge(self):
        merged = merge_forced_failures(workflow(), {"j0": 1}, {"j1": 2})
        assert merged == {"j0": 1, "j1": 2}

    def test_override_wins(self):
        merged = merge_forced_failures(workflow(), {"j0": 1}, {"j0": 5})
        assert merged == {"j0": 5}

    def test_empty_maps_ok(self):
        assert merge_forced_failures(workflow(), {}) == {}

    def test_unknown_ids_listed(self):
        with pytest.raises(ExecutionError) as excinfo:
            merge_forced_failures(workflow(), {"jX": 1}, {"ghost": 2})
        message = str(excinfo.value)
        assert "ghost" in message and "jX" in message


class TestSimulatorValidation:
    def test_configured_unknown_node_rejected_at_startup(self):
        sim = GridSimulator(topo(), SimulationOptions(forced_failures={"nope": 1}))
        with pytest.raises(ExecutionError, match="nope"):
            sim.execute(workflow())

    def test_runtime_override_validated_and_applied(self):
        sim = GridSimulator(topo(), SimulationOptions(runtime_jitter=0.0, max_retries=2))
        with pytest.raises(ExecutionError, match="ghost"):
            sim.execute(workflow(), forced_failures={"ghost": 1})
        report = sim.execute(workflow(), forced_failures={"j0": 1})
        assert report.succeeded and report.retries == 1

    def test_override_beats_configured_count(self):
        sim = GridSimulator(
            topo(),
            SimulationOptions(
                runtime_jitter=0.0, forced_failures={"j0": 99}, max_retries=2
            ),
        )
        # Overriding j0 down to a single failure lets the retry recover it.
        report = sim.execute(workflow(), forced_failures={"j0": 1})
        assert report.succeeded


def local_executor(**kwargs) -> tuple[LocalExecutor, ConcreteWorkflow]:
    sites = {"isi": StorageSite("isi")}
    rls = ReplicaLocationService()
    rls.add_site("isi")
    registry = ExecutableRegistry()
    registry.register("galMorph", lambda job, inputs: {job.outputs[0]: b"out"})
    return LocalExecutor(sites, registry, rls, **kwargs), workflow()


class TestLocalExecutorFailures:
    def test_configured_unknown_node_rejected(self):
        executor, cw = local_executor(forced_failures={"bogus": 1})
        with pytest.raises(ExecutionError, match="bogus"):
            executor.execute(cw)

    def test_runtime_override_unknown_node_rejected(self):
        executor, cw = local_executor()
        with pytest.raises(ExecutionError, match="ghost"):
            executor.execute(cw, forced_failures={"ghost": 1})

    def test_forced_failure_retried_then_recovers(self):
        executor, cw = local_executor(max_retries=2)
        report = executor.execute(cw, forced_failures={"j0": 1})
        assert report.succeeded
        assert report.retries == 1

    def test_forced_failure_exhausts_retries(self):
        executor, cw = local_executor(max_retries=1)
        report = executor.execute(cw, forced_failures={"j0": 99})
        assert not report.succeeded
        assert report.failed_nodes == ("j0",)
        assert report.unrunnable_nodes == ("j1",)


class TestCascadingRescue:
    """Two sequential failures: the second rescue bank must supersede the
    first, and a resume from it must converge on the golden output."""

    def build(self):
        site = StorageSite("isi")
        rls = ReplicaLocationService()
        rls.add_site("isi")
        registry = ExecutableRegistry()
        registry.register(
            "galMorph", lambda job, inputs: {job.outputs[0]: f"row:{job.job_id}".encode()}
        )
        return LocalExecutor({"isi": site}, registry, rls, max_retries=0), site

    def golden(self, n=4) -> dict[str, bytes]:
        executor, site = self.build()
        report = executor.execute(workflow(n))
        assert report.succeeded
        return dict(site._content)  # noqa: SLF001 - test introspection

    def test_second_rescue_bank_resumes_to_golden_output(self):
        from repro.condor.rescue import completed_nodes

        golden = self.golden(4)
        executor, site = self.build()

        # First crash: j2 dies, bank holds {j0, j1}.
        first = executor.execute(workflow(4), forced_failures={"j2": 99})
        assert not first.succeeded
        bank1 = completed_nodes(first)
        assert bank1 == {"j0", "j1"}

        # Second crash on the same workflow: resume from bank1, j3 dies.
        # The new bank includes everything bank1 had *plus* j2.
        second = executor.execute(
            workflow(4), completed=bank1, forced_failures={"j3": 99}
        )
        assert not second.succeeded
        bank2 = completed_nodes(second) | bank1
        assert bank2 == {"j0", "j1", "j2"}

        # Third run resumes from the cascaded bank and only runs j3.
        final = executor.execute(workflow(4), completed=bank2)
        assert final.succeeded
        assert {r.node_id for r in final.runs} == {"j3"}
        assert dict(site._content) == golden  # noqa: SLF001


class TestCrossBackendParity:
    """One engine, two backends: the same plan, forced-failure map and
    fault plan must play out identically in ``local`` and ``simulate``
    mode — every injected fault is keyed on (site, node, attempt), so the
    backends may differ in timing only."""

    N = 9

    def build(self, faults):
        vds = VirtualDataSystem(
            planner_options=PlannerOptions(
                output_site="store", site_selection="round-robin", replica_selection="first"
            ),
            faults=faults.injector() if faults is not None else None,
        )
        vds.add_storage_site("store")
        vds.define(
            "TR upper( in x, out y ) { }\n"
            + "\n".join(
                f'DV d{i}->upper( x=@{{in:"raw{i}.txt"}}, y=@{{out:"res{i}.txt"}} );'
                for i in range(self.N)
            )
        )
        vds.registry.register(
            "upper", lambda job, inputs: {job.outputs[0]: next(iter(inputs.values())).upper()}
        )
        for site in ("isi", "uwisc", "fnal"):
            vds.tc.install("upper", site, "/bin/upper")
        for i in range(self.N):
            vds.publish(f"raw{i}.txt", f"row {i}".encode(), "store")
        return vds, vds.plan([f"res{i}.txt" for i in range(self.N)])

    @staticmethod
    def outcome(report):
        return {
            "attempts": {run.node_id: run.attempts for run in report.runs},
            "finished": {run.node_id: run.success for run in report.runs},
            "retries": report.retries,
            "failed": sorted(report.failed_nodes),
            "unrunnable": sorted(report.unrunnable_nodes),
            "transfer_counts": dict(report.transfer_counts),
        }

    @pytest.mark.parametrize(
        "forced_kinds, flaky",
        [
            ({"compute": 1, "transfer": 2, "registration": 1}, False),  # retried, recovers
            ({"compute": 99}, False),  # retries exhausted, descendants unrunnable
            ({}, True),  # site flakes + dropped transfers from the fault plan alone
            ({"transfer": 1}, True),
        ],
    )
    def test_local_and_simulate_agree(self, forced_kinds, flaky):
        faults = (
            FaultPlan(
                seed=5,
                sites={
                    "uwisc": SiteFaultSpec(flakiness=0.6),
                    "fnal": SiteFaultSpec(stage_in_failure_rate=0.5),
                    "store": SiteFaultSpec(stage_in_failure_rate=0.3),
                },
            )
            if flaky
            else None
        )
        outcomes = {}
        for mode in ("simulate", "local"):
            vds, plan = self.build(faults)  # fresh RLS/injector per mode
            first_of_kind: dict[str, str] = {}
            for node_id, payload in plan.concrete.dag.payloads():
                first_of_kind.setdefault(payload_kind(payload), node_id)
            forced = {first_of_kind[kind]: n for kind, n in forced_kinds.items()}
            outcomes[mode] = self.outcome(vds.execute(plan, mode=mode, forced_failures=forced))
        assert outcomes["local"] == outcomes["simulate"]
        if forced_kinds or flaky:
            assert outcomes["local"]["retries"] > 0
