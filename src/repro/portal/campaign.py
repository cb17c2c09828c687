"""The §5 campaign driver: analyse all eight demonstration clusters.

"We used our prototype to separately analyze eight different galaxy
clusters ... there were a total of 1152 compute jobs executed.  The
computations were performed on a total of 1525 images, corresponding to
30MB of data.  Staging the data in and out of the computations involved the
transfer of 2295 files."  :func:`run_campaign` reproduces that run as one
served job per cluster and sums the accounting each job's record carries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields

from repro.portal.analysis import DresslerAnalysis, analyze_morphology_catalog
from repro.portal.demo import DemoEnvironment
from repro.scheduler.job import JobAccounting, JobState
from repro.scheduler.service import run_clusters
from repro.utils.units import format_bytes
from repro.votable.parser import parse_votable


@dataclass(frozen=True)
class ClusterRunRecord:
    """One cluster's job: its accounting, science and ending error."""

    cluster: str
    #: ``None`` when the job ran no compute request of its own
    accounting: JobAccounting | None
    analysis: DresslerAnalysis | None
    #: the error that ended the cluster's job, when it did not complete
    error: str | None

    @property
    def failed(self) -> bool:
        """Did this cluster's analysis end without a usable catalog?"""
        return self.error is not None


@dataclass
class CampaignReport:
    """Aggregated §5 numbers plus per-cluster breakdowns."""

    records: list[ClusterRunRecord]

    @property
    def clusters(self) -> int:
        return len(self.records)

    @property
    def totals(self) -> JobAccounting:
        """Every cluster's accounting summed: the §5 headline numbers."""
        done = [r.accounting for r in self.records if r.accounting is not None]
        per_site: Counter[str] = Counter()
        for accounting in done:
            per_site.update(accounting.jobs_per_site)
        sums = {
            f.name: sum(getattr(a, f.name) for a in done)
            for f in fields(JobAccounting)
            if f.name != "jobs_per_site"
        }
        return JobAccounting(**sums, jobs_per_site=dict(per_site))

    @property
    def galaxy_range(self) -> tuple[int, int]:
        counts = [r.accounting.galaxies for r in self.records if r.accounting is not None]
        return (min(counts, default=0), max(counts, default=0))

    @property
    def failed_clusters(self) -> list[str]:
        return [r.cluster for r in self.records if r.failed]

    @property
    def succeeded(self) -> bool:
        """True when every cluster's job completed."""
        return not self.failed_clusters

    def failure_summary(self) -> str:
        """One line per failed cluster: node counts + the ending error."""
        lines = []
        for record in self.records:
            if record.failed:
                a = record.accounting
                lines.append(
                    f"{record.cluster}: {a.failed_nodes if a else 0} failed node(s), "
                    f"{a.unrunnable_nodes if a else 0} unrunnable — {record.error}"
                )
        return "\n".join(lines)

    def pools_used(self) -> list[str]:
        return sorted(self.totals.jobs_per_site)

    def totals_table(self) -> str:
        """Text table of the §5 quantities, paper value alongside."""
        lo, hi = self.galaxy_range
        totals = self.totals
        rows = [
            ("clusters analyzed", self.clusters, 8),
            ("galaxies (min)", lo, 37),
            ("galaxies (max)", hi, 561),
            ("compute jobs", totals.compute_jobs, 1152),
            ("images", totals.images, 1525),
            ("file transfers", totals.transfers, 2295),
        ]
        lines = [f"{'quantity':<22s} {'measured':>10s} {'paper':>8s}"]
        for label, measured, paper in rows:
            lines.append(f"{label:<22s} {measured:>10d} {paper:>8d}")
        lines.append(
            f"{'image data':<22s} {format_bytes(totals.image_bytes):>10s} {'30.0 MB':>8s}"
        )
        return "\n".join(lines)


def run_campaign(
    env: DemoEnvironment,
    cluster_names: list[str] | None = None,
    analyze: bool = True,
) -> CampaignReport:
    """Serve one job per cluster and fold the terminal records.

    The manager runs one job slot: site selection draws from the
    environment's RNG, so only a serial run repeats the paper's per-site
    spread.  A failed cluster is recorded with its error and the campaign
    goes on.  The Dressler statistics read each completed job's result
    VOTable; ``analyze=False`` skips them (useful when the run is only
    about workflow accounting).
    """
    names = cluster_names if cluster_names is not None else [c.name for c in env.clusters]
    jobs = run_clusters(env, names, max_workers=1)
    models = {c.name: c for c in env.clusters}
    records = []
    for job, content in jobs:
        analysis: DresslerAnalysis | None = None
        if analyze and content is not None:
            try:
                analysis = analyze_morphology_catalog(
                    parse_votable(content), models[job.spec.cluster]
                )
            except ValueError:
                analysis = None  # too few valid rows (tiny test clusters)
        error = None if job.state is JobState.COMPLETED else job.error
        records.append(ClusterRunRecord(job.spec.cluster, job.accounting, analysis, error))
    return CampaignReport(records)
