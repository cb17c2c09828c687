"""Workflow model: DAGs of jobs, abstract and concrete.

"The workflows are represented as Directed Acyclic Graphs (DAGs)" (§3.2).
Two refinement levels, exactly as the paper distinguishes them:

* :class:`AbstractWorkflow` — logical transformations over logical file
  names, no resources assigned (Figure 1);
* :class:`ConcreteWorkflow` — compute nodes pinned to sites plus the
  transfer and registration nodes Pegasus inserts (Figure 4).

The DAG core is implemented here (Kahn toposort, cycle detection,
ancestors/descendants) and cross-validated against networkx in the tests.
"""

from repro.workflow.abstract import AbstractJob, AbstractWorkflow
from repro.workflow.concrete import (
    ClusteredComputeNode,
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)
from repro.workflow.dag import DAG
from repro.workflow.viz import render_ascii

__all__ = [
    "DAG",
    "AbstractJob",
    "AbstractWorkflow",
    "ClusteredComputeNode",
    "ComputeNode",
    "TransferNode",
    "TransferKind",
    "RegistrationNode",
    "ConcreteWorkflow",
    "render_ascii",
]
