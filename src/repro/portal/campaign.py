"""The §5 campaign driver: analyse all eight demonstration clusters.

"We used our prototype to separately analyze eight different galaxy
clusters ... there were a total of 1152 compute jobs executed.  The
computations were performed on a total of 1525 images, corresponding to
30MB of data.  Staging the data in and out of the computations involved the
transfer of 2295 files."  :func:`run_campaign` reproduces that run and
returns the same accounting, per cluster and in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ReproError
from repro.portal.analysis import DresslerAnalysis, analyze_morphology_catalog
from repro.portal.demo import DemoEnvironment
from repro.utils.units import format_bytes


@dataclass(frozen=True)
class ClusterRunRecord:
    """The campaign accounting for one cluster."""

    cluster: str
    galaxies: int
    compute_jobs: int
    transfers: int
    stage_in: int
    inter_site: int
    stage_out: int
    images: int
    image_bytes: int
    valid_measurements: int
    jobs_per_site: dict[str, int]
    analysis: DresslerAnalysis | None
    #: DAGMan nodes that exhausted their retries for this cluster.
    failed_nodes: int = 0
    #: Nodes never launched because an ancestor failed.
    unrunnable_nodes: int = 0
    #: The error that ended the cluster's run, when it did not complete.
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Did this cluster's analysis end without a usable catalog?"""
        return self.error is not None or self.failed_nodes > 0 or self.unrunnable_nodes > 0


@dataclass
class CampaignReport:
    """Aggregated §5 numbers plus per-cluster breakdowns."""

    records: list[ClusterRunRecord] = field(default_factory=list)

    @property
    def clusters(self) -> int:
        return len(self.records)

    @property
    def compute_jobs(self) -> int:
        return sum(r.compute_jobs for r in self.records)

    @property
    def transfers(self) -> int:
        return sum(r.transfers for r in self.records)

    @property
    def images(self) -> int:
        return sum(r.images for r in self.records)

    @property
    def image_bytes(self) -> int:
        return sum(r.image_bytes for r in self.records)

    @property
    def galaxy_range(self) -> tuple[int, int]:
        counts = [r.galaxies for r in self.records]
        return (min(counts), max(counts))

    @property
    def failed_clusters(self) -> list[str]:
        return [r.cluster for r in self.records if r.failed]

    @property
    def failed_nodes(self) -> int:
        return sum(r.failed_nodes for r in self.records)

    @property
    def unrunnable_nodes(self) -> int:
        return sum(r.unrunnable_nodes for r in self.records)

    @property
    def succeeded(self) -> bool:
        """True when every cluster completed with no FAILED/UNRUNNABLE nodes."""
        return not self.failed_clusters

    def failure_summary(self) -> str:
        """One line per failed cluster: node counts + the ending error."""
        lines = []
        for record in self.records:
            if not record.failed:
                continue
            lines.append(
                f"{record.cluster}: {record.failed_nodes} failed node(s), "
                f"{record.unrunnable_nodes} unrunnable"
                + (f" — {record.error}" if record.error else "")
            )
        return "\n".join(lines)

    def pools_used(self) -> list[str]:
        pools: set[str] = set()
        for record in self.records:
            pools.update(record.jobs_per_site)
        return sorted(pools)

    def totals_table(self) -> str:
        """Text table of the §5 quantities, paper value alongside."""
        lo, hi = self.galaxy_range
        rows = [
            ("clusters analyzed", self.clusters, 8),
            ("galaxies (min)", lo, 37),
            ("galaxies (max)", hi, 561),
            ("compute jobs", self.compute_jobs, 1152),
            ("images", self.images, 1525),
            ("file transfers", self.transfers, 2295),
        ]
        lines = [f"{'quantity':<22s} {'measured':>10s} {'paper':>8s}"]
        for label, measured, paper in rows:
            lines.append(f"{label:<22s} {measured:>10d} {paper:>8d}")
        lines.append(
            f"{'image data':<22s} {format_bytes(self.image_bytes):>10s} {'30.0 MB':>8s}"
        )
        return "\n".join(lines)


def run_campaign(
    env: DemoEnvironment,
    cluster_names: list[str] | None = None,
    analyze: bool = True,
) -> CampaignReport:
    """Run the full portal flow for each cluster and collect the accounting.

    ``analyze=False`` skips the Dressler statistics (useful when the run is
    only about workflow accounting).
    """
    names = cluster_names if cluster_names is not None else [c.name for c in env.clusters]
    report = CampaignReport()
    for name in names:
        try:
            session = env.portal.run_analysis(name)
        except ReproError as exc:
            # A failed cluster must not abort the rest of the campaign; it is
            # recorded with its FAILED/UNRUNNABLE node counts so the caller
            # can exit nonzero and report the damage.
            report.records.append(_failed_record(env, name, exc))
            continue
        # The compute request this session created is the service's latest.
        request = list(env.compute_service.requests.values())[-1]
        exec_report = request.report
        assert exec_report is not None and session.merged is not None

        analysis: DresslerAnalysis | None = None
        if analyze:
            try:
                analysis = analyze_morphology_catalog(session.merged, session.cluster)
            except ValueError:
                analysis = None  # too few valid rows (tiny test clusters)

        transfer_counts = exec_report.transfer_counts
        n_valid = sum(1 for row in session.merged if row["valid"])
        cutout_bytes = request.bytes_downloaded
        # The pre-seeded reuse replica is processed but was never downloaded
        # by the service; charge its nominal size so "images processed"
        # bytes stay consistent.
        missing_downloads = len(session.merged) - request.images_downloaded - request.images_cached
        cutout_bytes += missing_downloads * env.cutout_service.estimated_size()

        report.records.append(
            ClusterRunRecord(
                cluster=name,
                galaxies=len(session.merged),
                compute_jobs=sum(1 for r in exec_report.compute_runs if r.success),
                transfers=sum(transfer_counts.values()),
                stage_in=transfer_counts.get("stage-in", 0),
                inter_site=transfer_counts.get("inter-site", 0),
                stage_out=transfer_counts.get("stage-out", 0),
                images=len(session.merged) + session.n_context_images,
                image_bytes=cutout_bytes + session.context_image_bytes,
                valid_measurements=n_valid,
                jobs_per_site=exec_report.jobs_per_site(),
                analysis=analysis,
                failed_nodes=len(exec_report.failed_nodes),
                unrunnable_nodes=len(exec_report.unrunnable_nodes),
            )
        )
    return report


def _failed_record(
    env: DemoEnvironment, name: str, exc: ReproError
) -> ClusterRunRecord:
    """Accounting for a cluster whose run ended in an error."""
    exec_report = None
    for request in reversed(list(env.compute_service.requests.values())):
        if request.cluster == name:
            exec_report = request.report
            break
    return ClusterRunRecord(
        cluster=name,
        galaxies=0,
        compute_jobs=(
            sum(1 for r in exec_report.compute_runs if r.success) if exec_report else 0
        ),
        transfers=sum(exec_report.transfer_counts.values()) if exec_report else 0,
        stage_in=0,
        inter_site=0,
        stage_out=0,
        images=0,
        image_bytes=0,
        valid_measurements=0,
        jobs_per_site=exec_report.jobs_per_site() if exec_report else {},
        analysis=None,
        failed_nodes=len(exec_report.failed_nodes) if exec_report else 0,
        unrunnable_nodes=len(exec_report.unrunnable_nodes) if exec_report else 0,
        error=str(exc),
    )
