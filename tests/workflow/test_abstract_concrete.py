"""Tests for abstract/concrete workflow models and rendering."""

from __future__ import annotations

import pytest

from repro.core.errors import WorkflowError
from repro.workflow.abstract import AbstractJob, AbstractWorkflow
from repro.workflow.concrete import (
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)
from repro.workflow.viz import render_ascii


def job(job_id, transformation="t", inputs=(), outputs=("out",), **params):
    return AbstractJob(
        job_id=job_id,
        transformation=transformation,
        inputs=tuple(inputs),
        outputs=tuple(outputs),
        parameters={k: str(v) for k, v in params.items()},
    )


class TestAbstractJob:
    def test_requires_outputs(self):
        with pytest.raises(WorkflowError):
            job("j", outputs=())

    def test_input_output_overlap_rejected(self):
        with pytest.raises(WorkflowError):
            job("j", inputs=("x",), outputs=("x",))


class TestAbstractWorkflow:
    def test_dataflow_edges(self):
        wf = AbstractWorkflow(
            [job("a", outputs=("f1",)), job("b", inputs=("f1",), outputs=("f2",))]
        )
        assert wf.dag.edges() == [("a", "b")]

    def test_out_of_order_insertion(self):
        wf = AbstractWorkflow()
        wf.add_job(job("consumer", inputs=("mid",), outputs=("end",)))
        wf.add_job(job("producer", outputs=("mid",)))
        assert wf.dag.edges() == [("producer", "consumer")]

    def test_duplicate_producer_rejected(self):
        wf = AbstractWorkflow([job("a", outputs=("f",))])
        with pytest.raises(WorkflowError):
            wf.add_job(job("b", outputs=("f",)))

    def test_required_inputs_and_products(self):
        wf = AbstractWorkflow(
            [
                job("a", inputs=("raw",), outputs=("mid",)),
                job("b", inputs=("mid", "raw2"), outputs=("end",)),
            ]
        )
        assert wf.required_inputs() == {"raw", "raw2"}
        assert wf.products() == {"mid", "end"}
        assert wf.final_products() == {"end"}
        assert wf.producer_of("mid") == "a"
        assert wf.producer_of("raw") is None

    def test_copy_is_independent(self):
        wf = AbstractWorkflow([job("a")])
        clone = wf.copy()
        clone.add_job(job("b", inputs=("out",), outputs=("more",)))
        assert len(wf) == 1 and len(clone) == 2


class TestConcreteWorkflow:
    def _sample(self) -> ConcreteWorkflow:
        cw = ConcreteWorkflow()
        move = TransferNode(
            "x1", "b", TransferKind.STAGE_IN, "A", "gsiftp://A/b", "B", "gsiftp://B/b", 100
        )
        compute = ComputeNode("j1", job("d2", inputs=("b",), outputs=("c",)), "B", "/bin/t")
        out = TransferNode(
            "x2", "c", TransferKind.STAGE_OUT, "B", "gsiftp://B/c", "U", "gsiftp://U/c", 50
        )
        reg = RegistrationNode("r1", "c", "gsiftp://U/c", "U")
        for node in (move, compute, out, reg):
            cw.add(node)
        cw.link("x1", "j1")
        cw.link("j1", "x2")
        cw.link("x2", "r1")
        return cw

    def test_typed_views(self):
        cw = self._sample()
        assert len(cw.compute_nodes()) == 1
        assert len(cw.transfer_nodes()) == 2
        assert len(cw.transfer_nodes(TransferKind.STAGE_IN)) == 1
        assert len(cw.registration_nodes()) == 1

    def test_stats(self):
        stats = self._sample().stats()
        assert stats == {
            "compute": 1,
            "clustered": 0,
            "transfer": 2,
            "stage_in": 1,
            "inter_site": 0,
            "stage_out": 1,
            "registration": 1,
            "bytes_moved": 150,
        }

    def test_validate(self):
        cw = self._sample()
        cw.validate()
        cw.link("r1", "x1")
        with pytest.raises(WorkflowError):
            cw.validate()

    def test_render_ascii_mentions_figure4_steps(self):
        text = render_ascii(self._sample().dag)
        assert "move b A->B" in text
        assert "t@B" in text
        assert "register c" in text
