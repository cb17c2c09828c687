"""Sample statistics and the benchmark's own in-memory span recorder."""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(n: int, candidates: Sequence[float] = (50, 90, 99, 99.9)) -> float:
    """The highest candidate percentile with at least ten samples beyond it.

    A tail percentile is only as good as the samples above it; the median
    is always reportable.
    """
    supported = [q for q in candidates if q == 50 or round(n * (100 - q) / 100, 9) >= 10]
    return max(supported)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) exactly as ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the causing span in the recorder
    trace: str  # one identifier per job

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory and written out when the benchmark ends.

    Single-threaded by design: the traced walk runs on one thread, so the
    parent of a new span is simply the innermost open one.  ``enabled=False``
    makes :meth:`span` a no-op, which is how the recorder's own overhead is
    measured.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trace = ""

    @contextmanager
    def span(self, name: str, trace: str | None = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        if trace is not None:
            self._trace = trace
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self._trace))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def durations(self, name: str, trace: str | None = None) -> list[float]:
        return [
            s.duration for s in self.spans if s.name == name and trace in (None, s.trace)
        ]

    def records(self) -> list[dict]:
        selfs = self_times(self.spans)
        return [
            {
                "id": i,
                "name": s.name,
                "trace": s.trace,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "self_s": selfs[i],
            }
            for i, s in enumerate(self.spans)
        ]


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time = duration − union of the child intervals (children that
    overlap each other are counted once; parts outside the parent are not)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: list[float] = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration - covered)
    return out
