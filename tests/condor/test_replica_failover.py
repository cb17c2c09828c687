"""Tests for stage-in replica failover in the local executor.

The planned source PFN of a transfer can vanish between planning and
execution (a stale RLS entry).  The executor must unregister the stale
mapping, walk the surviving replicas and serve the first one that
verifies — and only fail when *no* replica holds the bytes.
"""

from __future__ import annotations

import pytest

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.rls.rls import ReplicaLocationService
from repro.rls.site import StorageSite
from repro.workflow.concrete import ConcreteWorkflow, TransferKind, TransferNode

PAYLOAD = b"SIMPLE  =" + b"\0" * 2871  # one well-formed FITS block


def environment(replicas: int = 2):
    """Two storage sites holding the same LFN + an RLS that knows both."""
    sites = {name: StorageSite(name) for name in ("isi", "fnal", "uwisc")}
    rls = ReplicaLocationService()
    for name in sites:
        rls.add_site(name)
    holders = ["isi", "fnal"][:replicas]
    for name in holders:
        pfn = sites[name].pfn_for("galaxy.fit")
        sites[name].put(pfn, PAYLOAD)
        rls.register("galaxy.fit", pfn, name)
    executor = LocalExecutor(sites, ExecutableRegistry(), rls)
    return executor, sites, rls


def stage_in(source_site: str, source_pfn: str) -> ConcreteWorkflow:
    cw = ConcreteWorkflow()
    cw.add(
        TransferNode(
            node_id="t0",
            lfn="galaxy.fit",
            kind=TransferKind.STAGE_IN,
            source_site=source_site,
            source_pfn=source_pfn,
            dest_site="uwisc",
            dest_pfn="gsiftp://uwisc.grid/data/galaxy.fit",
        )
    )
    return cw


class TestReplicaFailover:
    def test_stale_source_served_from_surviving_replica(self):
        executor, sites, rls = environment(replicas=2)
        stale_pfn = sites["isi"].pfn_for("galaxy.fit")
        sites["isi"].delete(stale_pfn)  # catalog still claims isi has it

        report = executor.execute(stage_in("isi", stale_pfn))
        assert report.succeeded
        assert sites["uwisc"].get("gsiftp://uwisc.grid/data/galaxy.fit") == PAYLOAD
        # The stale mapping was invalidated so no later plan trips over it.
        assert [r.site for r in rls.lookup("galaxy.fit")] == ["fnal"]

    def test_failover_counts_telemetry_and_event(self, enabled_telemetry):
        executor, sites, rls = environment(replicas=2)
        stale_pfn = sites["isi"].pfn_for("galaxy.fit")
        sites["isi"].delete(stale_pfn)
        assert executor.execute(stage_in("isi", stale_pfn)).succeeded

        registry = enabled_telemetry.get_registry()
        failovers = registry.get("resilience_replica_failovers_total")
        assert failovers is not None and sum(value for _, value in failovers.samples()) == 1.0
        invalidations = registry.get("rls_stale_invalidations_total")
        assert invalidations is not None and dict(invalidations.samples())[(("site", "isi"),)] == 1.0

    def test_no_live_replica_fails_the_node(self):
        executor, sites, rls = environment(replicas=2)
        for name in ("isi", "fnal"):
            sites[name].delete(sites[name].pfn_for("galaxy.fit"))

        report = executor.execute(
            stage_in("isi", sites["isi"].pfn_for("galaxy.fit"))
        )
        assert not report.succeeded
        assert report.failed_nodes == ("t0",)
        # Both stale mappings were dropped along the way.
        assert rls.lookup("galaxy.fit") == []

    def test_healthy_source_needs_no_failover(self, enabled_telemetry):
        executor, sites, _ = environment(replicas=2)
        report = executor.execute(stage_in("isi", sites["isi"].pfn_for("galaxy.fit")))
        assert report.succeeded
        assert enabled_telemetry.get_registry().get(
            "resilience_replica_failovers_total"
        ) is None
