"""The GriPhyN Virtual Data System facade.

Chimera + Pegasus + RLS + TC + DAGMan wired together: "Chimera and Pegasus
are part of the GriPhyN Virtual Data System (VDS) which enables efficient
on-demand data derivation" (§3.2).  A user of this class speaks only in
virtual data terms — *define* derivations, *request* logical files — and
the system plans and executes whatever is needed, reusing anything already
materialised.
"""

from __future__ import annotations

from typing import Iterable

from typing import TYPE_CHECKING

from repro.condor.local import ExecutableRegistry, LocalExecutor
from repro.condor.pool import GridTopology
from repro.condor.report import ExecutionReport
from repro.condor.simulator import GridSimulator, SimulationOptions
from repro.core.errors import ExecutionError
from repro.core.provenance import ProvenanceStore
from repro.pegasus.options import PlannerOptions
from repro.pegasus.planner import PegasusPlanner, PlanResult
from repro.pegasus.site_selector import (
    HealthAwareSiteSelector,
    SiteSelector,
    make_site_selector,
)
from repro.resilience.breaker import SiteHealthTracker
from repro.rls.rls import ReplicaLocationService

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector
from repro.rls.site import StorageSite
from repro.tc.catalog import TransformationCatalog
from repro.utils.events import EventLog
from repro.vdl.catalog import VirtualDataCatalog
from repro.vdl.composer import compose_workflow


class VirtualDataSystem:
    """One Grid's worth of virtual-data machinery.

    Parameters
    ----------
    topology:
        Compute pools and network model; every pool automatically gets a
        co-located storage site.
    planner_options:
        Pegasus configuration (output site, policies, reduction toggle).
    simulation_options:
        Discrete-event simulator configuration, used by ``mode="simulate"``.
    """

    def __init__(
        self,
        topology: GridTopology | None = None,
        planner_options: PlannerOptions | None = None,
        simulation_options: SimulationOptions | None = None,
        faults: "FaultInjector | None" = None,
        health: SiteHealthTracker | None = None,
    ) -> None:
        self.topology = topology if topology is not None else GridTopology.default_demo()
        self.events = EventLog()
        self.vdc = VirtualDataCatalog()
        #: chaos fault oracle shared by the RLS and both execution engines
        self.faults = faults
        #: per-site circuit-breaker ledger: executors feed it, planning
        #: consults it (health-aware site selection routes replans around
        #: sites whose breaker is OPEN)
        self.health = health
        self.rls = ReplicaLocationService(self.events, faults=faults)
        self.tc = TransformationCatalog()
        self.registry = ExecutableRegistry()
        self.provenance = ProvenanceStore()
        self.sites: dict[str, StorageSite] = {}
        for pool_name in self.topology.pools:
            self.add_storage_site(pool_name)
        self.planner_options = planner_options if planner_options is not None else PlannerOptions()
        self.simulation_options = simulation_options if simulation_options is not None else SimulationOptions()

        self._planner = PegasusPlanner(
            rls=self.rls,
            tc=self.tc,
            options=self.planner_options,
            site_capacities=self.topology.capacities(),
            pfn_resolver=self._pfn_resolver,
            size_estimator=self._size_estimator,
            event_log=self.events,
            site_selector_factory=(
                self._health_gated_selector if self.health is not None else None
            ),
        )

    def _health_gated_selector(self) -> "SiteSelector":
        """Planner hook: the configured policy, filtered by site health so
        an OPEN breaker vetoes a site on the next (re)plan."""
        selector = make_site_selector(
            self.planner_options.site_selection,
            seed=self.planner_options.seed,
            capacities=self.topology.capacities(),
        )
        return HealthAwareSiteSelector(selector, self.health)

    # -- wiring helpers --------------------------------------------------------
    def _pfn_resolver(self, site: str, lfn: str) -> str:
        if site in self.sites:
            return self.sites[site].pfn_for(lfn)
        return f"gsiftp://{site}.grid/data/{lfn}"

    def _size_estimator(self, lfn: str) -> int:
        """Plan-time size from any existing replica's storage; 0 if unknown."""
        for replica in self.rls.lookup(lfn):
            site = self.sites.get(replica.site)
            if site is not None and site.exists(replica.pfn):
                return site.size(replica.pfn)
        return 0

    def add_storage_site(self, name: str) -> StorageSite:
        """Register a storage site with both the byte store and the RLS."""
        if name in self.sites:
            raise ValueError(f"storage site {name!r} already exists")
        site = StorageSite(name)
        self.sites[name] = site
        self.rls.add_site(name)
        return site

    def publish(self, lfn: str, content: bytes, site_name: str) -> str:
        """Store real bytes at a site and register the replica; returns PFN."""
        site = self.sites[site_name]
        pfn = site.pfn_for(lfn)
        site.put(pfn, content)
        self.rls.register(lfn, pfn, site_name)
        return pfn

    def retrieve(self, lfn: str) -> bytes:
        """Fetch a materialised logical file from any replica."""
        for replica in self.rls.lookup(lfn):
            site = self.sites.get(replica.site)
            if site is not None and site.exists(replica.pfn):
                return site.get(replica.pfn)
        raise ExecutionError(f"no retrievable replica of {lfn!r}")

    # -- the virtual-data API ------------------------------------------------------
    def define(self, vdl_text: str) -> tuple[int, int]:
        """Ingest VDL text into the Chimera catalog; returns (#TR, #DV)."""
        return self.vdc.define(vdl_text)

    def plan(self, requested_lfns: Iterable[str]) -> PlanResult:
        """Chimera composition + Pegasus planning for the requested files."""
        requested = list(requested_lfns)
        abstract = compose_workflow(self.vdc, requested)
        self.events.emit(0.0, "chimera", "abstract-workflow-composed", jobs=len(abstract))
        return self._planner.plan(abstract, requested)

    def execute(
        self,
        plan: PlanResult,
        mode: str = "local",
        completed: set[str] | None = None,
        forced_failures: dict[str, int] | None = None,
    ) -> ExecutionReport:
        """Run a plan for real (``"local"``) or in virtual time (``"simulate"``).

        ``completed`` pre-marks nodes DONE (rescue-DAG resume: a
        resubmission skips everything a failed run finished).
        ``forced_failures`` is a fault-injection override; in local mode the
        configured :attr:`simulation_options.forced_failures` map applies
        too, so one chaos knob drives both engines.  Both maps are
        validated against the plan's DAG — unknown node ids raise
        :class:`~repro.core.errors.ExecutionError`.
        """
        if mode == "local":
            executor = LocalExecutor(
                sites=self.sites,
                registry=self.registry,
                rls=self.rls,
                provenance=self.provenance,
                event_log=self.events,
                forced_failures=self.simulation_options.forced_failures,
                faults=self.faults,
                health=self.health,
            )
            return executor.execute(
                plan.concrete, completed=completed, forced_failures=forced_failures
            )
        if mode == "simulate":
            simulator = GridSimulator(
                topology=self.topology,
                options=self.simulation_options,
                size_lookup=self._size_estimator,
                event_log=self.events,
                faults=self.faults,
                health=self.health,
            )
            return simulator.execute(
                plan.concrete, completed=completed, forced_failures=forced_failures
            )
        raise ValueError(f"unknown execution mode {mode!r}; use 'local' or 'simulate'")

    def materialize(self, requested_lfns: Iterable[str]) -> tuple[PlanResult, ExecutionReport]:
        """Plan + execute in one step — 'ask for Y and the system figures
        out how to compute Y' (§3.3)."""
        plan = self.plan(requested_lfns)
        report = self.execute(plan)
        return plan, report

    def materialize_by_metadata(
        self, **metadata: str
    ) -> tuple[PlanResult, ExecutionReport]:
        """Ask for data by application metadata, not by file name.

        GriPhyN's virtual-data promise: the caller names *what the data is
        about* (e.g. ``cluster="A1656"``, ``band="r"``); the VDC resolves
        matching derivations to logical files and the system materialises
        them.
        """
        lfns = self.vdc.find_outputs_by_metadata(**metadata)
        if not lfns:
            raise ExecutionError(f"no derivations annotated with {metadata!r}")
        return self.materialize(lfns)

    def explain(self, lfn: str) -> str:
        """Answer "how was this file made?" from the provenance store."""
        return self.provenance.lineage_text(lfn)
