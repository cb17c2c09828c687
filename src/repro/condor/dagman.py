"""DAGMan scheduling state: release-on-parent-success with retries.

Driven by :class:`~repro.condor.engine.DagEngine` for every backend, so all
obey the same semantics: a node becomes ready when every parent has
succeeded; a node that exhausts its retries is FAILED and all its
descendants UNRUNNABLE (DAGMan then emits a rescue DAG,
:mod:`repro.condor.rescue`).
"""

from __future__ import annotations

import enum

from repro.core.errors import ExecutionError
from repro.workflow.dag import DAG


class NodeStatus(str, enum.Enum):
    PENDING = "pending"  # waiting for parents
    READY = "ready"  # all parents succeeded; eligible to run
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"  # retries exhausted
    UNRUNNABLE = "unrunnable"  # an ancestor failed


class DagmanState:
    """Tracks per-node status and drives the ready queue."""

    def __init__(self, dag: DAG, max_retries: int = 2, completed: set[str] | None = None) -> None:
        """``completed`` pre-marks nodes DONE — the rescue-DAG resume path:
        a resubmission skips everything the failed run finished."""
        dag.validate()
        self.dag = dag
        self.max_retries = max_retries
        self.status: dict[str, NodeStatus] = {}
        self.attempts: dict[str, int] = {}
        self._unfinished_parents: dict[str, int] = {}
        #: DAG insertion rank; the READY set, kept current by every transition
        self._rank = {node_id: i for i, node_id in enumerate(dag.node_ids())}
        self._ready: set[str] = set()
        done = set(completed or ())
        unknown = done - set(dag.node_ids())
        if unknown:
            raise ExecutionError(f"completed set references unknown nodes: {sorted(unknown)}")
        for node_id in dag.node_ids():
            parents = dag.parents(node_id)
            self._unfinished_parents[node_id] = sum(1 for p in parents if p not in done)
            if node_id in done:
                self.status[node_id] = NodeStatus.DONE
            elif self._unfinished_parents[node_id] == 0:
                self.status[node_id] = NodeStatus.READY
                self._ready.add(node_id)
            else:
                self.status[node_id] = NodeStatus.PENDING
            self.attempts[node_id] = 0

    # -- queries ---------------------------------------------------------------
    def ready_nodes(self) -> list[str]:
        """Nodes eligible to start, in DAG insertion order."""
        return sorted(self._ready, key=self._rank.__getitem__)

    def is_complete(self) -> bool:
        """True when no node can make further progress."""
        return all(
            s in (NodeStatus.DONE, NodeStatus.FAILED, NodeStatus.UNRUNNABLE)
            for s in self.status.values()
        )

    def succeeded(self) -> bool:
        return all(s is NodeStatus.DONE for s in self.status.values())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.status.values():
            out[s.value] = out.get(s.value, 0) + 1
        return out

    def failed_nodes(self) -> list[str]:
        return [n for n, s in self.status.items() if s is NodeStatus.FAILED]

    # -- transitions ---------------------------------------------------------------
    def mark_running(self, node_id: str) -> None:
        if self.status[node_id] is not NodeStatus.READY:
            raise ExecutionError(
                f"cannot start node {node_id!r} in state {self.status[node_id].value}"
            )
        self.status[node_id] = NodeStatus.RUNNING
        self._ready.discard(node_id)
        self.attempts[node_id] += 1

    def mark_success(self, node_id: str) -> list[str]:
        """Complete a node; returns children that just became READY."""
        if self.status[node_id] is not NodeStatus.RUNNING:
            raise ExecutionError(
                f"cannot complete node {node_id!r} in state {self.status[node_id].value}"
            )
        self.status[node_id] = NodeStatus.DONE
        released: list[str] = []
        for child in self.dag.children(node_id):
            self._unfinished_parents[child] -= 1
            if self._unfinished_parents[child] == 0 and self.status[child] is NodeStatus.PENDING:
                self.status[child] = NodeStatus.READY
                self._ready.add(child)
                released.append(child)
        return released

    def mark_failure(self, node_id: str) -> bool:
        """Record a failed attempt.

        Returns True when the node will be retried (status back to READY);
        False when retries are exhausted — the node is FAILED and all its
        descendants become UNRUNNABLE.
        """
        if self.status[node_id] is not NodeStatus.RUNNING:
            raise ExecutionError(
                f"cannot fail node {node_id!r} in state {self.status[node_id].value}"
            )
        if self.attempts[node_id] <= self.max_retries:
            self.status[node_id] = NodeStatus.READY
            self._ready.add(node_id)
            return True
        self.status[node_id] = NodeStatus.FAILED
        for descendant in self.dag.descendants(node_id):
            if self.status[descendant] in (NodeStatus.PENDING, NodeStatus.READY):
                self.status[descendant] = NodeStatus.UNRUNNABLE
                self._ready.discard(descendant)
        return False
