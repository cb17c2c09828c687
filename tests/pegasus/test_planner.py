"""Tests for the concretizer and the end-to-end planner (Figures 2 and 4)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InfeasibleWorkflowError, PlanningError
from repro.pegasus.concretizer import Concretizer
from repro.pegasus.options import PlannerOptions
from repro.pegasus.planner import PegasusPlanner
from repro.pegasus.site_selector import RoundRobinSiteSelector
from repro.pegasus.submit import generate_submit_files
from repro.rls.rls import ReplicaLocationService
from repro.tc.catalog import TransformationCatalog
from repro.workflow.abstract import AbstractJob, AbstractWorkflow
from repro.workflow.concrete import ComputeNode, TransferKind


def grid(*materialised: str):
    rls = ReplicaLocationService()
    for site in ("A", "B", "C", "U"):
        rls.add_site(site)
    for lfn in materialised:
        rls.register(lfn, f"gsiftp://A.grid/data/{lfn}", "A")
    tc = TransformationCatalog()
    tc.install("t1", "B", "/bin/t1")
    tc.install("t2", "B", "/bin/t2")
    return rls, tc


def chain() -> AbstractWorkflow:
    return AbstractWorkflow(
        [
            AbstractJob("d1", "t1", inputs=("a",), outputs=("b",)),
            AbstractJob("d2", "t2", inputs=("b",), outputs=("c",)),
        ]
    )


def options(**kwargs) -> PlannerOptions:
    defaults = dict(output_site="U", site_selection="round-robin", replica_selection="first")
    defaults.update(kwargs)
    return PlannerOptions(**defaults)


class TestFeasibility:
    def test_missing_input_rejected(self):
        rls, tc = grid()  # 'a' absent
        planner = PegasusPlanner(rls, tc, options())
        with pytest.raises(InfeasibleWorkflowError):
            planner.plan(chain())

    def test_present_input_accepted(self):
        rls, tc = grid("a")
        PegasusPlanner(rls, tc, options()).plan(chain())

    def test_unknown_transformation_rejected(self):
        rls, _ = grid("a")
        planner = PegasusPlanner(rls, TransformationCatalog(), options())
        with pytest.raises(PlanningError):
            planner.plan(chain())


class TestFigure4Shape:
    def test_reduced_concrete_workflow(self):
        """Figure 3 -> Figure 4: move b, run d2@B, move c to U, register."""
        rls, tc = grid("a", "b")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        cw = plan.concrete
        assert [j.job_id for j in plan.reduced.jobs()] == ["d2"]
        stats = cw.stats()
        assert stats["compute"] == 1
        assert stats["stage_in"] == 1
        assert stats["stage_out"] == 1
        assert stats["registration"] == 1
        # order: transfer -> compute -> transfer -> registration
        order = cw.dag.topological_order()
        kinds = [type(cw.dag.payload(n)).__name__ for n in order]
        assert kinds == ["TransferNode", "ComputeNode", "TransferNode", "RegistrationNode"]

    def test_local_replica_skips_stage_in(self):
        rls, tc = grid("a")
        rls.register("a", "gsiftp://B.grid/data/a", "B")  # replica at the exec site
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        assert plan.concrete.stats()["stage_in"] == 0

    def test_inter_site_transfer_when_jobs_split(self):
        rls, tc = grid("a")
        tc.install("t2", "C", "/bin/t2")  # force d2 elsewhere
        opts = options(site_selection="least-loaded")
        # least-loaded with capacities drives t1->B (only choice), t2->C or B;
        # use round-robin instead for determinism across the two jobs
        plan = PegasusPlanner(
            rls, tc, options(), site_capacities={"B": 1, "C": 1}
        ).plan(chain())
        cw = plan.concrete
        sites = {n.job.job_id: n.site for n in cw.compute_nodes()}
        if sites["d1"] != sites["d2"]:
            assert cw.stats()["inter_site"] == 1
        else:
            assert cw.stats()["inter_site"] == 0

    def test_no_output_site_no_stage_out(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options(output_site=None)).plan(chain())
        assert plan.concrete.stats()["stage_out"] == 0
        # registration happens at the execution site
        regs = plan.concrete.registration_nodes()
        assert {r.site for r in regs} == {"B"}

    def test_registration_disabled(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options(register_outputs=False)).plan(chain())
        assert plan.concrete.stats()["registration"] == 0

    def test_fully_satisfied_delivery_only(self):
        rls, tc = grid("a", "c")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        assert plan.reduction.fully_satisfied
        stats = plan.concrete.stats()
        assert stats["compute"] == 0
        assert stats["stage_out"] == 1  # deliver the cached c to U

    def test_fully_satisfied_already_at_output_site(self):
        rls, tc = grid("a")
        rls.register("c", "gsiftp://U.grid/data/c", "U")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        assert len(plan.concrete) == 0

    def test_reduction_disabled_keeps_jobs(self):
        rls, tc = grid("a", "b", "c")
        plan = PegasusPlanner(rls, tc, options(enable_reduction=False)).plan(chain())
        assert plan.concrete.stats()["compute"] == 2


class TestSharedInputDedup:
    def test_one_stage_in_per_site(self):
        rls = ReplicaLocationService()
        for site in ("A", "B"):
            rls.add_site(site)
        rls.register("shared", "gsiftp://A.grid/data/shared", "A")
        tc = TransformationCatalog()
        tc.install("t", "B", "/bin/t")
        wf = AbstractWorkflow(
            [
                AbstractJob("j1", "t", inputs=("shared",), outputs=("o1",)),
                AbstractJob("j2", "t", inputs=("shared",), outputs=("o2",)),
            ]
        )
        plan = PegasusPlanner(rls, tc, PlannerOptions(site_selection="round-robin")).plan(wf)
        assert plan.concrete.stats()["stage_in"] == 1
        # both jobs depend on that single transfer node
        transfer = plan.concrete.transfer_nodes(TransferKind.STAGE_IN)[0]
        children = plan.concrete.dag.children(transfer.node_id)
        assert {"job-j1", "job-j2"} <= children


class TestFigure2Events:
    def test_event_sequence(self):
        rls, tc = grid("a", "b")
        planner = PegasusPlanner(rls, tc, options())
        planner.plan(chain())
        kinds = planner.events.kinds()
        expected_order = [
            "abstract-workflow-received",
            "request-manager-dispatch",
            "rls-resolution",
            "dag-reduction",
            "tc-resolution",
            "concrete-workflow",
            "submit-files-generated",
        ]
        positions = [kinds.index(k) for k in expected_order]
        assert positions == sorted(positions)

    def test_reduction_event_detail(self):
        rls, tc = grid("a", "b")
        planner = PegasusPlanner(rls, tc, options())
        planner.plan(chain())
        (event,) = [e for e in planner.events if e.kind == "dag-reduction"]
        assert event.detail["before"] == 2
        assert event.detail["after"] == 1
        assert event.detail["pruned"] == 1


class TestSubmitFiles:
    def test_generated_for_every_node(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        submit = plan.submit
        assert len(submit) == len(plan.concrete)
        assert submit.dag_file.count("JOB ") == len(plan.concrete)

    def test_parent_child_lines_match_edges(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        for parent, child in plan.concrete.dag.edges():
            assert f"PARENT {parent} CHILD {child}" in plan.submit.dag_file

    def test_compute_submit_contents(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        compute_ids = [n.node_id for n in plan.concrete.compute_nodes()]
        text = plan.submit.submit_files[compute_ids[0]]
        assert "universe = globus" in text
        assert "executable = /bin/t" in text

    def test_transfer_submit_uses_globus_url_copy(self):
        rls, tc = grid("a")
        plan = PegasusPlanner(rls, tc, options()).plan(chain())
        transfer = plan.concrete.transfer_nodes()[0]
        assert "globus-url-copy" in plan.submit.submit_files[transfer.node_id]
