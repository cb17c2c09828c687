"""Tests for DAGMan scheduling state."""

from __future__ import annotations

import pytest

from repro.condor.dagman import DagmanState, NodeStatus
from repro.core.errors import ExecutionError
from repro.workflow.dag import DAG


def diamond() -> DAG:
    dag: DAG[None] = DAG()
    for name in "abcd":
        dag.add_node(name, None)
    dag.add_edge("a", "b")
    dag.add_edge("a", "c")
    dag.add_edge("b", "d")
    dag.add_edge("c", "d")
    return dag


class TestRelease:
    def test_initial_ready_is_roots(self):
        state = DagmanState(diamond())
        assert state.ready_nodes() == ["a"]

    def test_children_released_after_all_parents(self):
        state = DagmanState(diamond())
        state.mark_running("a")
        released = state.mark_success("a")
        assert set(released) == {"b", "c"}
        state.mark_running("b")
        assert state.mark_success("b") == []  # d still waits on c
        state.mark_running("c")
        assert state.mark_success("c") == ["d"]

    def test_complete_and_succeeded(self):
        state = DagmanState(diamond())
        for node in ("a", "b", "c", "d"):
            state.mark_running(node)
            state.mark_success(node)
        assert state.succeeded()
        assert set(state.status.values()) == {NodeStatus.DONE}


class TestFailureSemantics:
    def test_retry_then_fail(self):
        state = DagmanState(diamond(), max_retries=1)
        state.mark_running("a")
        assert state.mark_failure("a") is True  # retry 1
        assert state.status["a"] is NodeStatus.READY
        state.mark_running("a")
        assert state.mark_failure("a") is False  # exhausted
        assert state.status["a"] is NodeStatus.FAILED

    def test_descendants_unrunnable(self):
        state = DagmanState(diamond(), max_retries=0)
        state.mark_running("a")
        state.mark_failure("a")
        for node in "bcd":
            assert state.status[node] is NodeStatus.UNRUNNABLE
        assert not state.succeeded()
        assert state.failed_nodes() == ["a"]

    def test_partial_failure_leaves_independent_branch(self):
        state = DagmanState(diamond(), max_retries=0)
        state.mark_running("a")
        state.mark_success("a")
        state.mark_running("b")
        state.mark_failure("b")
        # c is untouched, d unrunnable
        assert state.status["c"] is NodeStatus.READY
        assert state.status["d"] is NodeStatus.UNRUNNABLE


class TestTransitionGuards:
    def test_cannot_start_pending(self):
        state = DagmanState(diamond())
        with pytest.raises(ExecutionError):
            state.mark_running("d")

    def test_cannot_complete_unstarted(self):
        state = DagmanState(diamond())
        with pytest.raises(ExecutionError):
            state.mark_success("a")

    def test_cannot_fail_unstarted(self):
        state = DagmanState(diamond())
        with pytest.raises(ExecutionError):
            state.mark_failure("a")

    def test_attempts_counted(self):
        state = DagmanState(diamond(), max_retries=2)
        state.mark_running("a")
        state.mark_failure("a")
        state.mark_running("a")
        assert state.attempts["a"] == 2
