"""Dependency-free metrics registry: counters, gauges, histograms.

Prometheus-shaped but with no client-library dependency: metric families
are identified by ``snake_case`` names ending in the conventional suffixes
(``*_total`` counters, ``*_seconds`` histograms), label sets are plain
keyword arguments, and histograms use fixed cumulative buckets.  The
registry is thread-safe (one lock per family) and picklable-dumpable so
worker processes can ship their deltas back to the parent
(:meth:`MetricsRegistry.dump` / :meth:`MetricsRegistry.merge`).

Export formats live in :mod:`repro.telemetry.exporters`.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default latency buckets (seconds), tuned to the galMorph kernel range.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: A label set as stored: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared machinery: a named family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class _Scalar(_Metric):
    """One float per label set: what a counter and a gauge share."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._values: dict[LabelKey, float] = {}

    def samples(self) -> list[tuple[LabelKey, float]]:
        with self._lock:
            return sorted(self._values.items())


class Counter(_Scalar):
    """Monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (amount={amount})")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Scalar):
    """A value that can go up and down (pool load, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)


class Histogram(_Metric):
    """Fixed-bucket histogram with per-series sum and count.

    Buckets are upper bounds; export is cumulative with a ``+Inf`` bucket,
    matching the Prometheus text exposition format.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        # per label set: (per-bucket non-cumulative counts + overflow, sum, count)
        self._series: dict[LabelKey, tuple[list[int], float, int]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        v = float(value)
        key = _label_key(labels)
        with self._lock:
            counts, total, n = self._series.get(key, (None, 0.0, 0))
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if v <= bound:
                    idx = i
                    break
            counts[idx] += 1
            self._series[key] = (counts, total + v, n + 1)

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """Cumulative bucket counts, sum and count for one label set."""
        key = _label_key(labels)
        with self._lock:
            counts, total, n = self._series.get(
                key, ([0] * (len(self.buckets) + 1), 0.0, 0)
            )
            counts = list(counts)
        cumulative: list[int] = []
        running = 0
        for c in counts:
            running += c
            cumulative.append(running)
        snap = {
            "buckets": {
                **{str(b): cumulative[i] for i, b in enumerate(self.buckets)},
                "+Inf": cumulative[-1],
            },
            "sum": total,
            "count": n,
        }
        for q in (50, 95, 99):
            snap[f"p{q}"] = self._bucket_quantile(cumulative, n, q)
        return snap

    def _bucket_quantile(self, cumulative: list[int], n: int, q: float) -> float | None:
        """Nearest-rank quantile estimate from cumulative bucket counts.

        Returns the upper bound of the bucket holding the rank — an upper
        estimate, exact only up to bucket resolution.  Samples landing in
        the ``+Inf`` overflow clamp to the largest finite bound so the
        result stays JSON-serialisable.
        """
        if n == 0:
            return None
        rank = max(1, -(-n * q // 100))  # ceil(n*q/100)
        for i, bound in enumerate(self.buckets):
            if cumulative[i] >= rank:
                return bound
        return self.buckets[-1]

    def series_keys(self) -> list[LabelKey]:
        with self._lock:
            return sorted(self._series)

    def raw_series(self) -> dict[LabelKey, tuple[list[int], float, int]]:
        with self._lock:
            return {k: (list(c), s, n) for k, (c, s, n) in self._series.items()}


class MetricsRegistry:
    """Named families of counters/gauges/histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: repeated calls
    with the same name return the same family, and a name registered as
    one kind cannot be re-registered as another.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- family management ------------------------------------------------------
    def _get_or_create(self, cls: type, name: str, **kwargs: Any) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"not {cls.kind}"
                    )
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)  # type: ignore[return-value]

    def histogram(self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, buckets=buckets)  # type: ignore[return-value]

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def families(self) -> list[_Metric]:
        """All metric families, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    # -- cross-process merge ---------------------------------------------------
    def dump(self) -> dict[str, Any]:
        """Picklable snapshot for shipping worker-process metrics home."""
        out: dict[str, Any] = {}
        for metric in self.families():
            if isinstance(metric, Histogram):
                out[metric.name] = {
                    "kind": metric.kind,
                    "buckets": metric.buckets,
                    "series": {k: v for k, v in metric.raw_series().items()},
                }
            else:
                out[metric.name] = {
                    "kind": metric.kind,
                    "series": dict(metric.samples()),  # type: ignore[union-attr]
                }
        return out

    def merge(self, dumped: Mapping[str, Any]) -> None:
        """Fold a :meth:`dump` from another registry into this one.

        Counters and histograms add; gauges take the incoming value (last
        writer wins — gauges are instantaneous by definition).
        """
        for name, payload in dumped.items():
            kind = payload["kind"]
            if kind == "counter":
                metric = self.counter(name)
                for key, value in payload["series"].items():
                    metric.inc(value, **dict(key))
            elif kind == "gauge":
                metric = self.gauge(name)
                for key, value in payload["series"].items():
                    metric.set(value, **dict(key))
            elif kind == "histogram":
                metric = self.histogram(name, buckets=payload["buckets"])
                if metric.buckets != tuple(payload["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                with metric._lock:
                    for key, (counts, total, n) in payload["series"].items():
                        have = metric._series.get(key)
                        if have is None:
                            metric._series[key] = (list(counts), total, n)
                        else:
                            merged = [a + b for a, b in zip(have[0], counts)]
                            metric._series[key] = (merged, have[1] + total, have[2] + n)
            else:  # pragma: no cover - future kinds
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
