"""Run reports from trace JSONL: timeline, critical path, slowest nodes.

Consumes the span records exported by
:meth:`repro.telemetry.tracing.Tracer.export_jsonl` and renders the
operator's view of a run:

* **span hierarchy** — the portal → services → planner → condor →
  morphology tree, with sibling spans of the same name aggregated
  (``galmorph.galaxy ×27``) so campaign-scale traces stay readable;
* **workflow node timeline** — Gantt-style bars over the per-DAG-node
  ``condor.node`` spans (wall or virtual clock, whichever the executor
  recorded);
* **critical path** — the longest dependency chain through the executed
  DAG, from the ``deps`` attribute each node span carries;
* **top-N slowest nodes**.

Everything here is pure: records in, strings/dicts out.  The CLI entry is
``python -m repro telemetry report``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import SpanRecord

#: How many of the slowest nodes the run report lists.
TOP = 5

__all__ = [
    "node_spans",
    "critical_path",
    "slowest_spans",
    "summarize",
    "render_report",
    "render_resilience_summary",
]

#: Metric families the resilience summary renders, in display order.
RESILIENCE_METRICS = (
    "faults_injected_total",
    "resilience_retries_total",
    "resilience_site_failures_total",
    "resilience_breaker_transitions_total",
    "resilience_breaker_open",
    "resilience_sites_blacklisted_total",
    "resilience_blacklist_fallbacks_total",
    "resilience_replica_failovers_total",
    "rls_stale_invalidations_total",
    "scheduler_requeues_total",
    "portal_archive_errors_total",
    "portal_dropped_galaxies_total",
    "service_request_errors_total",
)

#: Span name the Condor executors use for per-DAG-node spans.
NODE_SPAN = "condor.node"


def _by_id(spans: Sequence[SpanRecord]) -> dict[str, SpanRecord]:
    return {rec["span"]: rec for rec in spans}


def _children(spans: Sequence[SpanRecord]) -> dict[str | None, list[SpanRecord]]:
    index = _by_id(spans)
    kids: dict[str | None, list[SpanRecord]] = {}
    for rec in spans:
        parent = rec.get("parent")
        if parent is not None and parent not in index:
            parent = None  # orphan (e.g. trimmed trace): treat as a root
        kids.setdefault(parent, []).append(rec)
    for group in kids.values():
        group.sort(key=lambda r: (r.get("start", 0.0), r["span"]))
    return kids


def roots(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Spans with no (resolvable) parent, in start order."""
    return _children(spans).get(None, [])


def node_spans(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """The per-DAG-node spans, final attempt per node id."""
    latest: dict[str, SpanRecord] = {}
    for rec in spans:
        if rec["name"] != NODE_SPAN:
            continue
        node = str(rec.get("attrs", {}).get("node", rec["span"]))
        have = latest.get(node)
        if have is None or rec.get("end", 0.0) >= have.get("end", 0.0):
            latest[node] = rec
    return sorted(latest.values(), key=lambda r: (r.get("start", 0.0), r["span"]))


def critical_path(spans: Sequence[SpanRecord]) -> list[SpanRecord]:
    """Longest cumulative-duration dependency chain through the node spans.

    Uses each node span's ``deps`` attribute (its DAG parents).  Returns
    the chain in execution order; empty when the trace has no node spans.
    """
    nodes = {str(r["attrs"].get("node", r["span"])): r for r in node_spans(spans)}
    if not nodes:
        return []
    best: dict[str, float] = {}
    prev: dict[str, str | None] = {}

    order = sorted(nodes, key=lambda n: (nodes[n].get("start", 0.0), n))
    for name in order:
        rec = nodes[name]
        deps = [str(d) for d in rec["attrs"].get("deps", []) if str(d) in nodes]
        incoming = max(
            ((best.get(d, 0.0), d) for d in deps), default=(0.0, None)
        )
        best[name] = incoming[0] + float(rec.get("dur", 0.0))
        prev[name] = incoming[1]

    tail = max(best, key=lambda n: (best[n], n))
    chain: list[SpanRecord] = []
    cursor: str | None = tail
    while cursor is not None:
        chain.append(nodes[cursor])
        cursor = prev.get(cursor)
    chain.reverse()
    return chain


def slowest_spans(spans: Sequence[SpanRecord], n: int = TOP) -> list[SpanRecord]:
    """Top-``n`` spans by duration (node spans, if any exist)."""
    pool = node_spans(spans) or list(spans)
    return sorted(pool, key=lambda r: -float(r.get("dur", 0.0)))[:n]


def summarize(spans: Sequence[SpanRecord]) -> dict[str, Any]:
    """Structured rollup of a trace (what the CLI/status pages consume)."""
    traces = sorted({r.get("trace", "?") for r in spans})
    nodes = node_spans(spans)
    chain = critical_path(spans)
    errors = [r for r in spans if r.get("status") != "ok"]
    by_kind: dict[str, int] = {}
    for rec in nodes:
        kind = str(rec["attrs"].get("kind", "?"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    makespan = 0.0
    if nodes:
        t0 = min(float(r.get("start", 0.0)) for r in nodes)
        makespan = max(float(r.get("end", 0.0)) for r in nodes) - t0
    return {
        "spans": len(spans),
        "traces": len(traces),
        "roots": [
            {"name": r["name"], "dur": float(r.get("dur", 0.0))} for r in roots(spans)
        ],
        "nodes": len(nodes),
        "nodes_by_kind": by_kind,
        "node_makespan": makespan,
        "critical_path_len": len(chain),
        "critical_path_seconds": sum(float(r.get("dur", 0.0)) for r in chain),
        "errors": len(errors),
    }


# -- rendering -----------------------------------------------------------------
def _fmt_dur(seconds: float) -> str:
    if seconds >= 100:
        return f"{seconds:8.1f}s"
    if seconds >= 0.1:
        return f"{seconds:8.3f}s"
    return f"{seconds * 1e3:7.2f}ms"


def _tree_lines(spans: Sequence[SpanRecord]) -> list[str]:
    kids = _children(spans)
    lines: list[str] = []

    def walk(rec: SpanRecord, depth: int) -> None:
        if depth > 12:
            return
        indent = "  " * depth
        mark = "" if rec.get("status") == "ok" else "  !ERROR"
        lines.append(f"{indent}{rec['name']:<{max(40 - 2 * depth, 8)}s}{_fmt_dur(float(rec.get('dur', 0.0)))}{mark}")
        groups: dict[str, list[SpanRecord]] = {}
        for child in kids.get(rec["span"], []):
            groups.setdefault(child["name"], []).append(child)
        for name, group in groups.items():
            if len(group) == 1:
                walk(group[0], depth + 1)
            else:
                total = sum(float(c.get("dur", 0.0)) for c in group)
                slow = max(group, key=lambda c: float(c.get("dur", 0.0)))
                bad = sum(1 for c in group if c.get("status") != "ok")
                suffix = f"  !{bad} error(s)" if bad else ""
                lines.append(
                    f"{'  ' * (depth + 1)}{name} ×{len(group)}"
                    f"{'':<{max(40 - 2 * (depth + 1) - len(name) - len(str(len(group))) - 2, 1)}s}"
                    f"{_fmt_dur(total)}  (max {_fmt_dur(float(slow.get('dur', 0.0))).strip()}){suffix}"
                )
                walk(slow, depth + 2)

    for root in roots(spans):
        walk(root, 0)
    return lines


def _timeline_lines(nodes: Sequence[SpanRecord]) -> list[str]:
    width = limit = 40  # bar columns; nodes shown
    if not nodes:
        return ["  (no condor.node spans in this trace)"]
    t0 = min(float(r.get("start", 0.0)) for r in nodes)
    t1 = max(float(r.get("end", 0.0)) for r in nodes)
    span = max(t1 - t0, 1e-12)
    clock = str(nodes[0].get("clock", "wall"))
    lines = [f"  clock={clock}  t0={t0:.3f}  makespan={span:.3f}s"]
    shown = list(nodes)[:limit]
    label_w = max((len(str(r["attrs"].get("node", r["span"]))) for r in shown), default=8)
    label_w = min(label_w, 34)
    for rec in shown:
        node = str(rec["attrs"].get("node", rec["span"]))[:label_w]
        start = float(rec.get("start", 0.0)) - t0
        end = float(rec.get("end", 0.0)) - t0
        a = int(round(start / span * width))
        b = max(int(round(end / span * width)), a + 1)
        bar = " " * a + "#" * (b - a) + " " * (width - b)
        mark = " " if rec.get("status") == "ok" else "!"
        lines.append(
            f"  {node:<{label_w}s} |{bar}|{mark} {start:9.3f} -> {end:9.3f}  "
            f"({_fmt_dur(float(rec.get('dur', 0.0))).strip()})"
        )
    if len(nodes) > limit:
        lines.append(f"  ... {len(nodes) - limit} more node(s) not shown")
    return lines


def render_report(spans: Sequence[SpanRecord]) -> str:
    """The full human-readable run report."""
    summary = summarize(spans)
    nodes = node_spans(spans)
    chain = critical_path(spans)
    out: list[str] = []
    out.append("== trace summary ==")
    out.append(
        f"  spans={summary['spans']}  traces={summary['traces']}  "
        f"dag-nodes={summary['nodes']} {summary['nodes_by_kind']}  "
        f"errors={summary['errors']}"
    )
    for root in summary["roots"]:
        out.append(f"  root {root['name']}  {_fmt_dur(root['dur']).strip()}")

    out.append("")
    out.append("== span hierarchy ==")
    out.extend(_tree_lines(spans))

    out.append("")
    out.append("== workflow node timeline ==")
    out.extend(_timeline_lines(nodes))

    out.append("")
    out.append("== critical path ==")
    if chain:
        total = sum(float(r.get("dur", 0.0)) for r in chain)
        makespan = summary["node_makespan"] or total
        out.append(
            f"  {len(chain)} node(s), {total:.3f}s "
            f"({100.0 * total / makespan:.0f}% of node makespan)"
        )
        for rec in chain:
            attrs = rec["attrs"]
            out.append(
                f"    {str(attrs.get('node', rec['span'])):<34s} "
                f"{str(attrs.get('kind', '?')):<12s} "
                f"{str(attrs.get('site', '?')):<12s} {_fmt_dur(float(rec.get('dur', 0.0)))}"
            )
    else:
        out.append("  (no condor.node spans; nothing to chain)")

    out.append("")
    out.append(f"== top {TOP} slowest nodes ==")
    for rec in slowest_spans(spans):
        attrs = rec.get("attrs", {})
        out.append(
            f"    {str(attrs.get('node', rec['name'])):<34s} "
            f"{str(attrs.get('kind', rec['name'])):<12s} "
            f"{str(attrs.get('site', '-')):<12s} {_fmt_dur(float(rec.get('dur', 0.0)))}"
        )
    return "\n".join(out) + "\n"


def render_resilience_summary(registry: MetricsRegistry) -> str:
    """The chaos/resilience view of a run's metrics registry.

    Renders every :data:`RESILIENCE_METRICS` family that collected at
    least one sample — injected faults, retry ladders, breaker
    transitions, replica failovers, stale invalidations, scheduler
    requeues, portal degradation.  Returns ``""`` when none did (a
    fault-free run), so callers can append it conditionally.
    """
    lines: list[str] = []
    for name in RESILIENCE_METRICS:
        metric = registry.get(name)
        if metric is None:
            continue
        samples = metric.samples()  # type: ignore[union-attr]
        if not samples:
            continue
        total = sum(value for _, value in samples)
        lines.append(f"  {name:<44s} {total:g}")
        labelled = [(key, value) for key, value in samples if key]
        for key, value in labelled:
            label = ",".join(f"{k}={v}" for k, v in key)
            lines.append(f"      {label:<40s} {value:g}")
    if not lines:
        return ""
    return "== resilience ==\n" + "\n".join(lines) + "\n"
