"""Directed acyclic graph core.

A small, dependency-free DAG with the operations the planner and executor
need: Kahn topological sort, cycle detection on edge insertion batches and
ancestor/descendant closure.  Node payloads are arbitrary hashable-id
objects; the graph stores ids and a payload map.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterator, TypeVar

from repro.core.errors import WorkflowError

NodeT = TypeVar("NodeT")


class DAG(Generic[NodeT]):
    """A DAG of payload objects keyed by string id.

    Edges run parent -> child ("parent must complete before child").
    Acyclicity is enforced by :meth:`validate` and checked automatically by
    :meth:`topological_order`.
    """

    def __init__(self) -> None:
        self._nodes: dict[str, NodeT] = {}
        self._children: dict[str, set[str]] = {}
        self._parents: dict[str, set[str]] = {}

    # -- construction --------------------------------------------------------
    def add_node(self, node_id: str, payload: NodeT) -> None:
        if node_id in self._nodes:
            raise WorkflowError(f"duplicate node id {node_id!r}")
        self._nodes[node_id] = payload
        self._children[node_id] = set()
        self._parents[node_id] = set()

    def add_edge(self, parent: str, child: str) -> None:
        for end in (parent, child):
            if end not in self._nodes:
                raise WorkflowError(f"edge references unknown node {end!r}")
        if parent == child:
            raise WorkflowError(f"self-loop on node {parent!r}")
        self._children[parent].add(child)
        self._parents[child].add(parent)

    # -- queries ---------------------------------------------------------------
    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def payload(self, node_id: str) -> NodeT:
        if node_id not in self._nodes:
            raise WorkflowError(f"unknown node {node_id!r}")
        return self._nodes[node_id]

    def payloads(self) -> Iterator[tuple[str, NodeT]]:
        return iter(self._nodes.items())

    def parents(self, node_id: str) -> set[str]:
        return set(self._parents[node_id])

    def children(self, node_id: str) -> set[str]:
        return set(self._children[node_id])

    def edges(self) -> list[tuple[str, str]]:
        return [(p, c) for p, kids in self._children.items() for c in kids]

    # -- algorithms ---------------------------------------------------------------
    def topological_order(self) -> list[str]:
        """Kahn's algorithm; raises :class:`WorkflowError` on a cycle.

        Deterministic: ties broken by node insertion order.
        """
        in_degree = {n: len(self._parents[n]) for n in self._nodes}
        order_index = {n: i for i, n in enumerate(self._nodes)}
        ready = deque(sorted((n for n, d in in_degree.items() if d == 0), key=order_index.__getitem__))
        out: list[str] = []
        while ready:
            node = ready.popleft()
            out.append(node)
            newly_ready = []
            for child in self._children[node]:
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    newly_ready.append(child)
            for child in sorted(newly_ready, key=order_index.__getitem__):
                ready.append(child)
        if len(out) != len(self._nodes):
            stuck = sorted(n for n, d in in_degree.items() if d > 0)
            raise WorkflowError(f"cycle detected involving nodes {stuck}")
        return out

    def validate(self) -> None:
        """Raise :class:`WorkflowError` if the graph has a cycle."""
        self.topological_order()

    def _closure(self, start: str, direction: dict[str, set[str]]) -> set[str]:
        if start not in self._nodes:
            raise WorkflowError(f"unknown node {start!r}")
        seen: set[str] = set()
        frontier = deque(direction[start])
        while frontier:
            node = frontier.popleft()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(direction[node] - seen)
        return seen

    def ancestors(self, node_id: str) -> set[str]:
        """All transitive parents of a node."""
        return self._closure(node_id, self._parents)

    def descendants(self, node_id: str) -> set[str]:
        """All transitive children of a node."""
        return self._closure(node_id, self._children)

    def depth_levels(self) -> list[list[str]]:
        """Nodes grouped by longest-path depth from the roots (for display)."""
        depth: dict[str, int] = {}
        for node in self.topological_order():
            parent_depths = [depth[p] for p in self._parents[node]]
            depth[node] = 1 + max(parent_depths) if parent_depths else 0
        levels: dict[int, list[str]] = {}
        for node, d in depth.items():
            levels.setdefault(d, []).append(node)
        return [levels[d] for d in sorted(levels)]
