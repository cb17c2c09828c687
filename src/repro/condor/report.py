"""Execution reports: what happened when a concrete workflow ran.

:meth:`ExecutionReport.summary` keeps the original one-line format (older
tooling greps its ``OK``/``FAILED(n)`` prefix).  Run timelines and slowest-node tables are rendered from the trace by
:mod:`repro.telemetry.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class NodeRun:
    """Timing and outcome of one concrete node's (final) execution."""

    node_id: str
    kind: str  # "compute" | "transfer" | "registration"
    site: str
    start: float
    end: float
    attempts: int
    success: bool
    detail: str = ""


@dataclass
class ExecutionReport:
    """Aggregate outcome of a DAGMan run.

    ``transfer_counts`` is keyed by :class:`TransferKind` value so the §5
    accounting (stage-in vs stage-out vs inter-site) falls straight out.
    """

    runs: list[NodeRun] = field(default_factory=list)
    makespan: float = 0.0
    succeeded: bool = False
    failed_nodes: tuple[str, ...] = ()
    unrunnable_nodes: tuple[str, ...] = ()
    transfer_counts: dict[str, int] = field(default_factory=dict)
    bytes_moved: int = 0
    retries: int = 0

    @property
    def compute_runs(self) -> list[NodeRun]:
        return [r for r in self.runs if r.kind == "compute"]

    @property
    def transfer_runs(self) -> list[NodeRun]:
        return [r for r in self.runs if r.kind == "transfer"]

    def jobs_per_site(self) -> dict[str, int]:
        """Completed compute jobs per site — the three-pool §5 spread."""
        out: dict[str, int] = {}
        for run in self.compute_runs:
            if run.success:
                out[run.site] = out.get(run.site, 0) + 1
        return out

    def summary(self) -> str:
        """One-line rollup (compat format — tooling greps the prefix)."""
        counts = {
            "compute": len(self.compute_runs),
            "transfer": len(self.transfer_runs),
        }
        status = "OK" if self.succeeded else f"FAILED({len(self.failed_nodes)})"
        return (
            f"{status} makespan={self.makespan:.1f}s "
            f"compute={counts['compute']} transfers={counts['transfer']} "
            f"bytes={self.bytes_moved} retries={self.retries}"
        )
