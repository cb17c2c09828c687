"""Condor-G / DAGMan execution substrate.

"Pegasus ... submits it to Condor-G/DAGMan for execution" (§3.2).  One
engine, two backends: :class:`~repro.condor.engine.DagEngine` is the only
driver loop (release-on-parent-success, retries, fault hooks, rescue
resume, reporting, over :class:`DagmanState`); the same workflow runs on
either

* :class:`GridSimulator` — virtual time over the three Condor pools
  (slots, relative CPU speeds, inter-site bandwidth/latency, failure
  injection), for timing/ablation benchmarks; or
* :class:`LocalExecutor` — real execution: compute nodes invoke registered
  Python callables (the actual galMorph code), transfer nodes move real
  bytes between :class:`~repro.rls.site.StorageSite` stores, registration
  nodes publish into the live RLS.
"""

from repro.condor.dagman import DagmanState, NodeStatus
from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.mds import MdsSiteSelector, MonitoringService, ResourceRecord
from repro.condor.pool import CondorPool, GridTopology
from repro.condor.report import ExecutionReport, NodeRun
from repro.condor.rescue import rescue_dag_text
from repro.condor.simulator import GridSimulator

__all__ = [
    "DagmanState",
    "NodeStatus",
    "ExecutableRegistry",
    "LocalExecutor",
    "MonitoringService",
    "MdsSiteSelector",
    "ResourceRecord",
    "CondorPool",
    "GridTopology",
    "ExecutionReport",
    "NodeRun",
    "rescue_dag_text",
    "GridSimulator",
]
