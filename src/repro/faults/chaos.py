"""Chaos campaigns: the recovery invariant, executed.

A chaos campaign runs the same portal workload twice on two independently
wired demonstration environments, both armed as every environment is
(retries, circuit breakers, health-aware replanning, replica
verification + failover) and drained by the workload manager every
server runs, which requeues a transient failure with rescue-bank resume:

1. **baseline** — fault-free, the reference bytes;
2. **chaos** — the same seed and clusters with a :class:`FaultPlan`
   injected; an unrecoverable profile adds the portal quorums.

For a profile that claims ``recoverable=True`` the invariant is strict:
every cluster's merged output VOTable must be **byte-identical** to the
baseline's.  For an unrecoverable profile the assertion is graceful
degradation instead: every job reaches a terminal state (nothing wedges),
failures carry a summary, and partial results are annotated.

The harness also *manufactures* the stale-RLS fault the plan declares:
for every LFN matching ``plan.rls.stale_lfns`` it deletes the replica's
bytes while leaving the catalog mapping in place — the lie the
verification/invalidation path must catch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro import SHARDS
from repro.catalog.coords import SkyPosition
from repro.faults.plan import FaultPlan
from repro.faults.profiles import get_profile
from repro.scheduler.job import JobRecord, JobState
from repro.scheduler.service import JOB_WAIT_S, run_clusters
from repro.shard.tiling import position_for_cluster
from repro.sky.cluster import ClusterModel
from repro.utils.rng import DEMO_SEED

#: Two small clusters keep the default campaign fast while still crossing
#: every fault surface (archives, cone searches, cutouts, RLS, all pools).
DEFAULT_CHAOS_CLUSTERS = ("A3526", "MS0451")

#: Markers the portal writes into a degraded output VOTable.
_DEGRADATION_MARKERS = (b"archive_error", b"dropped_galaxies", b"fault_partial")


@dataclass(frozen=True)
class ClusterOutcome:
    """One cluster's baseline-vs-chaos comparison."""

    cluster: str
    baseline_sha256: str
    chaos_sha256: str | None
    state: str
    attempts: int
    requeues: int
    error: str = ""
    degraded: bool = False

    @property
    def identical(self) -> bool:
        return self.chaos_sha256 is not None and self.chaos_sha256 == self.baseline_sha256

    def as_dict(self) -> dict[str, Any]:
        return {
            "cluster": self.cluster,
            "baseline_sha256": self.baseline_sha256,
            "chaos_sha256": self.chaos_sha256,
            "identical": self.identical,
            "state": self.state,
            "attempts": self.attempts,
            "requeues": self.requeues,
            "degraded": self.degraded,
            "error": self.error,
        }


class _Verdict:
    """The verdict both campaign reports give over their cluster outcomes.

    A recoverable profile must leave every cluster completed with
    byte-identical output; an unrecoverable one must degrade gracefully.
    :meth:`_held` is what a report adds to both (a fleet's leaks and
    fingerprint), :attr:`GRACEFUL` what its graceful line promises.
    """

    recoverable: bool
    outcomes: list[ClusterOutcome]
    GRACEFUL = "no wedged jobs"

    def _held(self) -> bool:
        return True

    @property
    def recovered(self) -> bool:
        """Every cluster completed with byte-identical output."""
        return (
            all(o.state == "completed" and o.identical for o in self.outcomes)
            and self._held()
        )

    @property
    def graceful(self) -> bool:
        """Nothing wedged: every job reached a terminal state, and every
        failure carries an error summary."""
        for outcome in self.outcomes:
            if outcome.state not in ("completed", "failed", "cancelled"):
                return False
            if outcome.state == "failed" and not outcome.error:
                return False
        return self._held()

    @property
    def passed(self) -> bool:
        """The profile's claim holds."""
        return self.recovered if self.recoverable else self.graceful

    def exit_code(self) -> int:
        """CLI contract: 0 only for a recovered recoverable profile."""
        if self.recoverable:
            return 0 if self.recovered else 1
        return 1  # degraded/failed runs are never a silent success

    def _verdict_lines(self) -> list[str]:
        """The closing lines of :meth:`summary`."""
        if self.recoverable:
            verdict = "recovery invariant: " + (
                "HELD (outputs byte-identical)" if self.recovered else "VIOLATED"
            )
        else:
            verdict = "degradation hygiene: " + (
                f"graceful ({self.GRACEFUL})" if self.graceful else "NOT graceful"
            )
        return ["", verdict]


@dataclass
class ChaosReport(_Verdict):
    """What one campaign proved (JSON-ready, deterministic field order)."""

    profile: str
    seed: int
    recoverable: bool
    outcomes: list[ClusterOutcome]
    injected: dict[str, int] = field(default_factory=dict)
    stale_replicas_created: int = 0
    breaker_states: dict[str, str] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "recoverable": self.recoverable,
            "recovered": self.recovered,
            "graceful": self.graceful,
            "passed": self.passed,
            "stale_replicas_created": self.stale_replicas_created,
            "injected_faults": dict(sorted(self.injected.items())),
            "total_injected": sum(self.injected.values()),
            "breaker_states": dict(sorted(self.breaker_states.items())),
            "clusters": [o.as_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        lines = [
            f"chaos profile {self.profile!r} (seed {self.seed}, "
            f"{'recoverable' if self.recoverable else 'unrecoverable'})",
            "",
            f"{'cluster':<10s} {'state':<10s} {'attempts':>8s} {'requeues':>8s} "
            f"{'identical':>9s} {'degraded':>8s}",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.cluster:<10s} {o.state:<10s} {o.attempts:>8d} {o.requeues:>8d} "
                f"{'yes' if o.identical else 'NO':>9s} "
                f"{'yes' if o.degraded else '-':>8s}"
            )
            if o.error:
                lines.append(f"           error: {o.error}")
        if self.injected:
            lines.append("")
            lines.append("injected faults:")
            for key, count in sorted(self.injected.items()):
                lines.append(f"  {key:<28s} {count}")
        if self.stale_replicas_created:
            lines.append(f"stale replicas manufactured: {self.stale_replicas_created}")
        if self.breaker_states:
            states = ", ".join(f"{s}={v}" for s, v in sorted(self.breaker_states.items()))
            lines.append(f"circuit breakers: {states}")
        return "\n".join(lines + self._verdict_lines())


def _sha256(content: bytes) -> str:
    return hashlib.sha256(content).hexdigest()


def _make_stale_replicas(env: Any, plan: FaultPlan) -> int:
    """Delete the bytes behind catalog entries matching ``stale_lfns``.

    The RLS mapping survives — that *is* the fault: a catalog confidently
    pointing at storage that no longer holds the file.
    """
    suffixes = tuple(plan.rls.stale_lfns)
    if not suffixes:
        return 0
    broken = 0
    rls = env.vds.rls
    for site_name in rls.sites():
        storage = env.vds.sites.get(site_name)
        if storage is None:
            continue
        catalog = rls._catalogs[site_name]  # noqa: SLF001 - harness-only surgery
        for lfn in catalog.lfns():
            if not lfn.endswith(suffixes):
                continue
            for pfn in catalog.lookup(lfn):
                if storage.exists(pfn):
                    storage.delete(pfn)
                    broken += 1
    return broken


def _run_workload(env: Any, clusters: Sequence[str]) -> dict[str, tuple[JobRecord, bytes | None]]:
    """Drain one environment's job set: each cluster's record and bytes.

    One slot, as the campaign runs: the clusters share the environment's
    fault streams and site RNG, so concurrent jobs would draw from them in
    a thread-scheduling order and the injected counts would vary run to run.
    """
    jobs = run_clusters(env, clusters, max_workers=1)
    return {record.spec.cluster: (record, content) for record, content in jobs}


def run_chaos_campaign(
    profile: str = "recoverable",
    clusters: Sequence[str] | None = None,
    plan: FaultPlan | None = None,
) -> ChaosReport:
    """Run baseline + chaos and check the profile's claim.

    ``plan`` overrides the named ``profile`` (tests hand-craft plans);
    the report still records the profile name it was asked for.
    """
    from repro.portal.demo import build_demo_environment
    from repro.sky.registry_data import demonstration_cluster

    seed = DEMO_SEED
    if plan is None:
        plan = get_profile(profile, seed)
    names = tuple(clusters) if clusters else DEFAULT_CHAOS_CLUSTERS
    models = [demonstration_cluster(name) for name in names]

    # Baseline: fault-free reference bytes.
    baseline_env = build_demo_environment(clusters=models)
    baseline = _run_workload(baseline_env, names)
    for name, (record, content) in baseline.items():
        if content is None:
            raise RuntimeError(
                f"baseline run failed for {name!r}: {record.error or record.state.value}"
            )

    # Chaos: the served configuration plus the faults (and, to degrade, quorums).
    quorums = {} if plan.recoverable else {"archive_quorum": 1, "cutout_quorum": 0.5}
    chaos_env = build_demo_environment(clusters=models, fault_plan=plan, **quorums)
    stale = _make_stale_replicas(chaos_env, plan)
    chaos = _run_workload(chaos_env, names)

    outcomes: list[ClusterOutcome] = []
    for name in names:
        base_bytes = baseline[name][1]
        record, chaos_bytes = chaos[name]
        degraded = bool(
            chaos_bytes is not None
            and any(marker in chaos_bytes for marker in _DEGRADATION_MARKERS)
        )
        outcomes.append(
            ClusterOutcome(
                cluster=name,
                baseline_sha256=_sha256(base_bytes),
                chaos_sha256=_sha256(chaos_bytes) if chaos_bytes is not None else None,
                state=record.state.value,
                attempts=record.attempts,
                requeues=max(0, record.attempts - 1),
                error=record.error,
                degraded=degraded,
            )
        )

    return ChaosReport(
        profile=profile,
        seed=seed,
        recoverable=plan.recoverable,
        outcomes=outcomes,
        injected=chaos_env.fault_injector.injected(),
        stale_replicas_created=stale,
        breaker_states=chaos_env.vds.health.states(),
    )


# -- sharded campaigns ----------------------------------------------------------
@dataclass
class ShardChaosReport(_Verdict):
    """What a sharded campaign proved: the merged VOTables of a fleet that
    lost a worker against a one-shard fault-free baseline fleet's."""

    profile: str
    seed: int
    recoverable: bool
    shards: int
    outcomes: list[ClusterOutcome]
    killed_shard: str = ""
    relocated_jobs: int = 0
    cross_shard_hits: int = 0
    leaked_workers: int = 0
    fingerprint_stable: bool = True
    GRACEFUL = "no wedged jobs, no leaks"

    def _held(self) -> bool:
        return self.leaked_workers == 0 and self.fingerprint_stable

    def as_dict(self) -> dict[str, Any]:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "recoverable": self.recoverable,
            "sharded": True,
            "shards": self.shards,
            "killed_shard": self.killed_shard,
            "relocated_jobs": self.relocated_jobs,
            "cross_shard_hits": self.cross_shard_hits,
            "leaked_workers": self.leaked_workers,
            "fingerprint_stable": self.fingerprint_stable,
            "recovered": self.recovered,
            "graceful": self.graceful,
            "passed": self.passed,
            "clusters": [o.as_dict() for o in self.outcomes],
        }

    def summary(self) -> str:
        lines = [
            f"sharded chaos profile {self.profile!r} (seed {self.seed}, "
            f"{self.shards} shards, "
            f"{'recoverable' if self.recoverable else 'unrecoverable'})",
            "",
            f"{'cluster':<10s} {'user':<8s} {'state':<10s} {'identical':>9s}",
        ]
        for o in self.outcomes:
            user = o.cluster.partition("|")[2] or "-"
            name = o.cluster.partition("|")[0]
            lines.append(
                f"{name:<10s} {user:<8s} {o.state:<10s} "
                f"{'yes' if o.identical else 'NO':>9s}"
            )
            if o.error:
                lines.append(f"           error: {o.error}")
        if self.killed_shard:
            lines.append("")
            lines.append(
                f"killed shard {self.killed_shard!r} mid-flight; "
                f"{self.relocated_jobs} job(s) relocated by journal replay"
            )
        lines.append(f"cross-shard cache hits: {self.cross_shard_hits}")
        lines.append(f"leaked worker processes: {self.leaked_workers}")
        lines.append(
            "global fingerprint: "
            + ("stable across replays" if self.fingerprint_stable else "UNSTABLE")
        )
        return "\n".join(lines + self._verdict_lines())


def _drain_fleet(
    fleet: Any, workload: Sequence[tuple[str, str]], kill_after_submit: bool
) -> tuple[dict[tuple[str, str], dict[str, Any]], str]:
    """Submit a workload, optionally SIGKILL the busiest shard, drain."""
    records = [
        (user, cluster, fleet.submit(user, cluster)) for user, cluster in workload
    ]
    killed = ""
    if kill_after_submit:
        by_shard: dict[str, int] = {}
        for _, _, record in records:
            by_shard[record.shard] = by_shard.get(record.shard, 0) + 1
        if by_shard:
            killed = max(sorted(by_shard), key=lambda s: by_shard[s])
            fleet.kill_worker(killed)
    results: dict[tuple[str, str], dict[str, Any]] = {}
    for user, cluster, record in records:
        done = fleet.wait(record.job_id, timeout=JOB_WAIT_S)
        content: bytes | None = None
        if done.state is JobState.COMPLETED:
            content = fleet.result_bytes(record.job_id)
        results[(user, cluster)] = {
            "state": done.state.value,
            "content": content,
            "error": done.error,
        }
    return results, killed


def _crash_cluster(index: int) -> ClusterModel:
    """``CH<index>``: a generated cluster of 20-40 members centred on the
    name's routing position, so placement is exactly what the name hashes
    to.  Every job is a real portal run, big enough to outlast the submit
    burst (which keeps the relocation set independent of timing)."""
    name = f"CH{index:02d}"
    members = 20 + (7 * index) % 21
    return ClusterModel(
        name=name,
        center=SkyPosition(*position_for_cluster(name)),
        redshift=0.05,
        n_galaxies=members,
        core_radius_deg=0.03 + 0.00008 * members,
        tidal_radius_deg=0.35 + 0.0006 * members,
        seed=DEMO_SEED,
    )


def run_sharded_chaos_campaign() -> ShardChaosReport:
    """``worker-crash``: a single-shard baseline vs a fleet that loses a worker.

    The fault *is* a shard death, so the campaign manufactures it itself:
    20 real portal jobs (one small generated cluster each, so no two share
    a derivation) from 4 tenants, one worker SIGKILLed with jobs in
    flight, and the coordinator's journal-replay rebalance must finish the
    campaign with merged VOTables byte-identical to the baseline's, zero
    leaked worker processes and a stable global fingerprint.
    """
    import tempfile

    from repro.shard.fleet import ShardFleet

    profile, seed, shards = "worker-crash", DEMO_SEED, SHARDS
    plan = get_profile(profile, seed)
    clusters = tuple(_crash_cluster(i) for i in range(20))
    workload = [(f"user{i % 4}", c.name) for i, c in enumerate(clusters)]
    # one job at a time per shard, so the victim still holds all of its jobs
    worker = {"clusters": clusters, "max_workers": 1}

    with tempfile.TemporaryDirectory() as root:
        base_fleet = ShardFleet(f"{root}/baseline", shards=1, **worker)
        with base_fleet:
            baseline, _ = _drain_fleet(base_fleet, workload, kill_after_submit=False)
        leaked = len(base_fleet.leaked_processes())
        for (user, cluster), result in baseline.items():
            if result["content"] is None:
                raise RuntimeError(
                    f"baseline run failed for {cluster!r}/{user}: "
                    f"{result['error'] or result['state']}"
                )

        chaos_fleet = ShardFleet(f"{root}/chaos", shards=shards, **worker)
        with chaos_fleet:
            chaos, killed = _drain_fleet(chaos_fleet, workload, kill_after_submit=True)
            relocated = len(chaos_fleet._aliases)  # noqa: SLF001 - harness introspection
            cross_hits = chaos_fleet.cross_shard_hits()
            fingerprint = chaos_fleet.global_fingerprint()
            stable = fingerprint == chaos_fleet.global_fingerprint()
        leaked += len(chaos_fleet.leaked_processes())

    outcomes = [
        ClusterOutcome(
            cluster=f"{cluster}|{user}",
            baseline_sha256=_sha256(baseline[(user, cluster)]["content"]),
            chaos_sha256=(
                _sha256(chaos[(user, cluster)]["content"])
                if chaos[(user, cluster)]["content"] is not None
                else None
            ),
            state=chaos[(user, cluster)]["state"],
            attempts=0,
            requeues=0,
            error=chaos[(user, cluster)]["error"],
        )
        for user, cluster in workload
    ]
    return ShardChaosReport(
        profile=profile,
        seed=seed,
        recoverable=plan.recoverable,
        shards=shards,
        outcomes=outcomes,
        killed_shard=killed,
        relocated_jobs=relocated,
        cross_shard_hits=cross_hits,
        leaked_workers=leaked,
        fingerprint_stable=stable,
    )
