"""Workflow rendering: ASCII level diagrams.

Used by the examples and the Figure 1/3/4 benchmarks to print workflows the
way the paper draws them.
"""

from __future__ import annotations

from repro.workflow.concrete import ClusteredComputeNode, ComputeNode, RegistrationNode, TransferNode
from repro.workflow.dag import DAG


def _node_label(payload: object, node_id: str) -> str:
    if isinstance(payload, ClusteredComputeNode):
        return f"{payload.transformation} x{len(payload)}@{payload.site}"
    if isinstance(payload, ComputeNode):
        return f"{payload.job.transformation}@{payload.site}"
    if isinstance(payload, TransferNode):
        return f"move {payload.lfn} {payload.source_site}->{payload.dest_site}"
    if isinstance(payload, RegistrationNode):
        return f"register {payload.lfn}"
    return node_id


def render_ascii(dag: DAG) -> str:
    """Render a DAG as indented depth levels with edge arrows.

    Compact and deterministic; suited to golden-output tests.
    """
    lines: list[str] = []
    for depth, level in enumerate(dag.depth_levels()):
        shown = level[:6]
        labels = [f"[{_node_label(dag.payload(n), n)}]" for n in shown]
        extra = f" ... +{len(level) - len(shown)} more" if len(level) > len(shown) else ""
        lines.append(f"level {depth}: " + "  ".join(labels) + extra)
    lines.append(f"({len(dag)} nodes, {len(dag.edges())} edges)")
    return "\n".join(lines)
