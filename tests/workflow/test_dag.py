"""Tests for the DAG core, cross-validated against networkx."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import WorkflowError
from repro.workflow.dag import DAG


def chain(n=4) -> DAG:
    dag: DAG[str] = DAG()
    for i in range(n):
        dag.add_node(f"n{i}", f"payload{i}")
    for i in range(n - 1):
        dag.add_edge(f"n{i}", f"n{i+1}")
    return dag


class TestConstruction:
    def test_duplicate_node(self):
        dag = chain(2)
        with pytest.raises(WorkflowError):
            dag.add_node("n0", "x")

    def test_edge_unknown_node(self):
        dag = chain(2)
        with pytest.raises(WorkflowError):
            dag.add_edge("n0", "ghost")

    def test_self_loop(self):
        dag = chain(2)
        with pytest.raises(WorkflowError):
            dag.add_edge("n0", "n0")

    def test_payload_access(self):
        dag = chain(2)
        assert dag.payload("n1") == "payload1"
        with pytest.raises(WorkflowError):
            dag.payload("ghost")


class TestQueries:

    def test_diamond_relationships(self):
        dag: DAG[None] = DAG()
        for name in "abcd":
            dag.add_node(name, None)
        dag.add_edge("a", "b")
        dag.add_edge("a", "c")
        dag.add_edge("b", "d")
        dag.add_edge("c", "d")
        assert dag.ancestors("d") == {"a", "b", "c"}
        assert dag.descendants("a") == {"b", "c", "d"}
        assert dag.parents("d") == {"b", "c"}

    def test_depth_levels(self):
        dag = chain(3)
        assert dag.depth_levels() == [["n0"], ["n1"], ["n2"]]


class TestToposort:
    def test_cycle_detected(self):
        dag = chain(3)
        dag.add_edge("n2", "n0")
        with pytest.raises(WorkflowError):
            dag.topological_order()
        with pytest.raises(WorkflowError):
            dag.validate()

    def test_deterministic_by_insertion_order(self):
        dag: DAG[None] = DAG()
        for name in ("z", "a", "m"):
            dag.add_node(name, None)
        assert dag.topological_order() == ["z", "a", "m"]

    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] < e[1]
                ),
                max_size=30,
            ).map(lambda edges: (n, edges))
        )
    )
    def test_matches_networkx_on_random_dags(self, case):
        n, edges = case
        dag: DAG[None] = DAG()
        g = nx.DiGraph()
        for i in range(n):
            dag.add_node(str(i), None)
            g.add_node(str(i))
        for u, v in set(edges):
            dag.add_edge(str(u), str(v))
            g.add_edge(str(u), str(v))
        order = dag.topological_order()
        # valid linearisation: every edge goes forward
        position = {node: i for i, node in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges)
        assert len(order) == n
        # ancestors agree with networkx
        for node in g.nodes:
            assert dag.ancestors(node) == nx.ancestors(g, node)
            assert dag.descendants(node) == nx.descendants(g, node)
