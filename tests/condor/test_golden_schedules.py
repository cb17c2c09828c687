"""Golden schedules: both executors pinned against a recorded run.

``golden_schedules.json`` was captured from the two pre-engine driver
loops (one in ``condor/local.py``, one in ``condor/simulator.py``) and
must stay byte-for-byte what they produced: the simulator's full
:meth:`ExecutionReport.as_dict` plus its ordered event list, and the
order-insensitive parts of the real executor's run (attempts, retries,
failed sets, transfer accounting, provenance, output bytes).
The ``slow-site`` case (n = 90) is the only one that reaches the
simulator's ``site_slowdown`` path; it was recorded from the engine while
it still carried a speculation race, and pins that the race's removal
left the plain schedule alone.

Regenerate (only when a schedule change is intended and explained)::

    PYTHONPATH=src python tests/condor/test_golden_schedules.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.pool import GridTopology
from repro.condor.rescue import completed_nodes
from repro.condor.simulator import GridSimulator, SimulationOptions
from repro.core.provenance import ProvenanceStore
from repro.faults.profiles import get_profile
from repro.resilience.breaker import SiteHealthTracker
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.utils.events import EventLog
from repro.workflow.abstract import AbstractJob
from repro.workflow.concrete import (
    ClusteredComputeNode,
    ComputeNode,
    ConcreteWorkflow,
    RegistrationNode,
    TransferKind,
    TransferNode,
)

GOLDEN = Path(__file__).with_name("golden_schedules.json")
POOLS = ("isi", "uwisc", "fnal")
STORE = "store"
SEED = 2003


def storage() -> dict[str, StorageSite]:
    return {name: StorageSite(name) for name in (*POOLS, STORE)}


def golden_workflow(n: int) -> ConcreteWorkflow:
    """``n`` stage-in → galMorph → stage-out lanes round-robin over the
    three pools (every fifth lane a two-member seqexec bundle), fanning
    into one concatVOTable at the storage site and its registration."""
    sites = storage()
    cw = ConcreteWorkflow()
    staged_out: list[tuple[str, str]] = []
    for i in range(n):
        site = POOLS[i % len(POOLS)]
        lfn = f"in{i:02d}"
        cw.add(
            TransferNode(
                f"x{i:02d}", lfn, TransferKind.STAGE_IN,
                STORE, sites[STORE].pfn_for(lfn),
                site, sites[site].pfn_for(lfn),
                size_bytes=20000 + 500 * i,
            )
        )
        suffixes = ("a", "b") if i % 5 == 4 else ("",)
        members = tuple(
            ComputeNode(
                f"j{i:02d}{s}",
                AbstractJob(f"d{i:02d}{s}", "galMorph", (lfn,), (f"out{i:02d}{s}",),
                            {"lane": str(i)}),
                site,
                "/bin/galmorph",
            )
            for s in suffixes
        )
        compute = (
            members[0]
            if len(members) == 1
            else ClusteredComputeNode(f"j{i:02d}", members, site)
        )
        cw.add(compute)
        cw.link(f"x{i:02d}", compute.node_id)
        for s in suffixes:
            out = f"out{i:02d}{s}"
            cw.add(
                TransferNode(
                    f"y{i:02d}{s}", out, TransferKind.STAGE_OUT,
                    site, sites[site].pfn_for(out),
                    STORE, sites[STORE].pfn_for(out),
                )
            )
            cw.link(compute.node_id, f"y{i:02d}{s}")
            staged_out.append((f"y{i:02d}{s}", out))
    cw.add(
        ComputeNode(
            "cat",
            AbstractJob("dcat", "concatVOTable", tuple(o for _, o in staged_out), ("table",)),
            STORE,
            "/bin/concat",
        )
    )
    for node_id, _ in staged_out:
        cw.link(node_id, "cat")
    cw.add(RegistrationNode("reg", "table", sites[STORE].pfn_for("table"), STORE))
    cw.link("cat", "reg")
    return cw


#: name -> knobs.  ``resume_after`` runs the case twice: once with that
#: forced-failure map, then again with ``completed=`` the first run's bank.
CASES: dict[str, dict] = {
    "plain": {},
    "forced-retry": {"forced": {"j03": 1, "x05": 2, "reg": 1}},
    "forced-exhausted": {"forced": {"j04": 99, "x07": 99}, "max_retries": 1},
    "pool-failure-rate": {"failure_rate": 0.2, "max_retries": 3, "local": False},
    "recoverable-plan": {"profile": "recoverable"},
    "slow-site": {"profile": "slow-site", "n": 90},
    "rescue-resume": {"resume_after": {"j07": 99}, "max_retries": 0},
}


def simulate(case: dict) -> dict:
    workflow = golden_workflow(case.get("n", 12))
    faults = get_profile(case["profile"], seed=SEED).injector() if "profile" in case else None
    health = SiteHealthTracker(clock=lambda: 0.0)
    events = EventLog()
    simulator = GridSimulator(
        GridTopology.default_demo(failure_rate=case.get("failure_rate", 0.0)),
        SimulationOptions(seed=SEED, max_retries=case.get("max_retries", 2)),
        event_log=events,
        faults=faults,
        health=health,
    )
    completed = None
    if "resume_after" in case:
        crashed = simulator.execute(workflow, forced_failures=case["resume_after"])
        completed = completed_nodes(crashed)
    report = simulator.execute(
        workflow, completed=completed, forced_failures=case.get("forced")
    )
    return {
        "report": report.as_dict(),
        "events": [[e.time, e.source, e.kind, e.detail.get("node")] for e in events],
        "health": health.states(),
        "injected": faults.injected() if faults is not None else {},
    }


def run_local(case: dict) -> dict:
    n = case.get("n", 12)
    workflow = golden_workflow(n)
    sites = storage()
    for i in range(n):
        sites[STORE].put(sites[STORE].pfn_for(f"in{i:02d}"), f"cutout-{i}".encode() * 3)
    rls = ReplicaLocationService()
    for name in sites:
        rls.add_site(name)
    registry = ExecutableRegistry()
    registry.register(
        "galMorph",
        lambda job, inputs: {
            job.outputs[0]: job.job_id.encode() + b":" + b"".join(inputs.values())[::-1]
        },
    )
    registry.register(
        "concatVOTable",
        lambda job, inputs: {job.outputs[0]: b"|".join(inputs[k] for k in sorted(inputs))},
    )
    faults = get_profile(case["profile"], seed=SEED).injector() if "profile" in case else None
    provenance = ProvenanceStore()
    events = EventLog()
    executor = LocalExecutor(
        sites,
        registry,
        rls,
        max_retries=case.get("max_retries", 2),
        provenance=provenance,
        event_log=events,
        faults=faults,
        health=SiteHealthTracker(clock=lambda: 0.0),
    )
    completed = None
    if "resume_after" in case:
        crashed = executor.execute(workflow, forced_failures=case["resume_after"])
        completed = completed_nodes(crashed)
    report = executor.execute(
        workflow, completed=completed, forced_failures=case.get("forced")
    )
    failures = sorted(
        [e.kind, e.detail.get("node")] for e in events if e.kind == "node-failed"
    )
    return {
        "succeeded": report.succeeded,
        "attempts": {run.node_id: run.attempts for run in report.runs},
        "outcomes": {run.node_id: run.success for run in report.runs},
        "retries": report.retries,
        "failed_nodes": sorted(report.failed_nodes),
        "unrunnable_nodes": sorted(report.unrunnable_nodes),
        "transfer_counts": dict(sorted(report.transfer_counts.items())),
        "bytes_moved": report.bytes_moved,
        "failure_events": failures,
        "registered": sorted(r.pfn for r in rls.lookup("table")),
        "provenance": sorted(
            [r.job_id, r.transformation, r.site, list(r.inputs), list(r.outputs),
             dict(r.parameters), r.success]
            for r in provenance.records()
        ),
        "output_sha256": {
            name: hashlib.sha256(
                b"\0".join(
                    pfn.encode() + b"=" + content
                    for pfn, content in sorted(site._content.items())  # noqa: SLF001
                )
            ).hexdigest()
            for name, site in sorted(sites.items())
        },
    }


def capture() -> dict:
    return {
        name: {
            "simulate": simulate(case),
            **({"local": run_local(case)} if case.get("local", True) else {}),
        }
        for name, case in CASES.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_simulator_schedule_is_golden(golden, name):
    # round-trip through JSON so tuples/lists and float reprs compare equal
    got = json.loads(json.dumps(simulate(CASES[name])))
    want = golden[name]["simulate"]
    assert got["report"] == want["report"]
    assert got["events"] == want["events"]
    assert got == want


@pytest.mark.parametrize(
    "name", [name for name, case in CASES.items() if case.get("local", True)]
)
def test_local_executor_outcome_is_golden(golden, name):
    got = json.loads(json.dumps(run_local(CASES[name])))
    assert got == golden[name]["local"]


if __name__ == "__main__":
    if "--write" not in sys.argv:
        sys.exit(__doc__)
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
