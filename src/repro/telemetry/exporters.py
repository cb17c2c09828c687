"""Metric exporters: Prometheus text exposition format and JSON.

The Prometheus renderer follows the text-based exposition format
(``# TYPE`` headers, cumulative ``_bucket{le=...}`` series,
``_sum``/``_count`` for histograms, escaped label values); the bundled
:func:`parse_prometheus_text` is a strict-enough parser used by the
exporter golden tests to prove the output round-trips.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["to_prometheus_text", "to_json", "parse_prometheus_text"]


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(key: tuple[tuple[str, str], ...], extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = list(key) + list(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in items)
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every family in the registry as Prometheus exposition text."""
    lines: list[str] = []
    for metric in registry.families():
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            samples = metric.samples()
            if not samples:
                lines.append(f"{metric.name} 0")
            for key, value in samples:
                lines.append(f"{metric.name}{_render_labels(key)} {_format_value(value)}")
        elif isinstance(metric, Histogram):
            for key in metric.series_keys() or [()]:
                snap = metric.snapshot(**dict(key))
                for bound, count in snap["buckets"].items():
                    le = bound if bound == "+Inf" else _format_value(float(bound))
                    lines.append(
                        f"{metric.name}_bucket{_render_labels(key, (('le', le),))} {count}"
                    )
                lines.append(
                    f"{metric.name}_sum{_render_labels(key)} {_format_value(snap['sum'])}"
                )
                lines.append(f"{metric.name}_count{_render_labels(key)} {snap['count']}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry) -> str:
    """JSON snapshot: ``{name: {kind, series: [{labels, ...}]}}``."""
    out: dict[str, Any] = {}
    for metric in registry.families():
        entry: dict[str, Any] = {"kind": metric.kind, "series": []}
        if isinstance(metric, (Counter, Gauge)):
            for key, value in metric.samples():
                entry["series"].append({"labels": dict(key), "value": value})
        elif isinstance(metric, Histogram):
            for key in metric.series_keys():
                snap = metric.snapshot(**dict(key))
                entry["series"].append({"labels": dict(key), **snap})
        out[metric.name] = entry
    return json.dumps(out, indent=2, sort_keys=True)


# -- validation ----------------------------------------------------------------
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[+-]?(?:Inf|NaN|[0-9.eE+-]+))\s*$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Parse exposition text into ``{name: [(labels, value), ...]}``.

    Raises :class:`ValueError` on any line that is neither a comment nor a
    well-formed sample — the contract the exporter golden tests enforce.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment form {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for lm in _LABEL_RE.finditer(raw):
                labels[lm.group(1)] = (
                    lm.group(2)
                    .replace(r"\n", "\n")
                    .replace(r"\"", '"')
                    .replace(r"\\", "\\")
                )
                consumed += len(lm.group(0))
            stripped = re.sub(r"[,\s]", "", raw)
            matched = re.sub(r"[,\s]", "", "".join(m.group(0) for m in _LABEL_RE.finditer(raw)))
            if stripped != matched:
                raise ValueError(f"line {lineno}: malformed labels {raw!r}")
        value_text = match.group("value")
        if value_text in ("+Inf", "Inf"):
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        elif value_text == "NaN":
            value = math.nan
        else:
            value = float(value_text)
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples
