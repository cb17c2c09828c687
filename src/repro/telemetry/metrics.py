"""Dependency-free metrics registry: counters, gauges, histograms.

Prometheus-shaped but with no client-library dependency: metric families
are identified by ``snake_case`` names ending in the conventional suffixes
(``*_total`` counters, ``*_seconds`` histograms), label sets are plain
keyword arguments, and histograms use fixed cumulative buckets.  The
registry is thread-safe (one lock per family) and picklable-dumpable so
worker processes can ship their cumulative values back to the parent
(:meth:`MetricsRegistry.dump` / :meth:`MetricsRegistry.merge`).

Every counter and histogram series also keeps its running totals at the
end of each of its last :data:`RING_SECONDS` seconds, which ``window``
reads: the live views (``/debug/*``, ``repro top``, SLO burn rates) are
such reads.  A family keeps at most :data:`MAX_SERIES` label sets, so
label values from outside the program cannot grow memory without bound.

Export formats live in :mod:`repro.telemetry.exporters`.
"""

from __future__ import annotations

import threading
import time
from array import array
from typing import Any, Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "quantile_rank",
]

#: Default latency buckets (seconds), tuned to the galMorph kernel range.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Seconds of history a counter or histogram series keeps, one slot a
#: second: the longest window anything reads (the SLO's long window).
RING_SECONDS = 600

#: Label sets one family keeps before new ones overflow.
MAX_SERIES = 64

#: The value the labels of an overflowing label set are counted under.
OVERFLOW = "__other__"

#: Labels an overflowing label set keeps: their values are the program's,
#: from a short list (an HTTP status), so a failure still reads as one.
KEPT_ON_OVERFLOW = frozenset({"status"})

#: A label set as stored: sorted (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def quantile_rank(n: int, q: float) -> int:
    """The nearest rank of quantile ``q`` (in (0, 100]) among ``n`` ordered
    values: ``ceil(n * q / 100)``, and at least 1."""
    if not 0.0 < q <= 100.0:
        raise ValueError(f"quantile must be in (0, 100], got {q}")
    return max(1, int(-(-n * q // 100)))


def bucket_quantile(
    bounds: Sequence[float], counts: Sequence[float], q: float
) -> float | None:
    """Nearest-rank quantile of per-bucket counts (the last one ``+Inf``):
    the upper bound of the bucket holding the rank, exact to one bucket.
    The ``+Inf`` overflow clamps to the largest finite bound (JSON-safe);
    no samples at all give ``None``."""
    n = sum(counts)
    if n == 0:
        return None
    rank = quantile_rank(n, q)
    running = 0.0
    for bound, count in zip(bounds, counts):
        running += count
        if running >= rank:
            return bound
    return bounds[-1]


class _Ring:
    """One series' running totals at the end of each of its last seconds.

    Slot ``s % SLOTS`` holds the series' total (``width`` values, one per
    bucket) as it stood at the end of second ``s``, for the
    :data:`RING_SECONDS` + 2 seconds up to the latest write, so the count
    over any window up to :data:`RING_SECONDS` long is the difference of
    two slots.  The first write of a new second carries the last totals
    forward into the seconds between, so no slot is stale.  Memory is fixed
    at creation: ``SLOTS * width * 8`` bytes — 4.8 KB for a counter series,
    77 KB for a histogram series on :data:`DEFAULT_BUCKETS`.  The family's
    lock guards it.
    """

    SLOTS = RING_SECONDS + 2  # a window's start, and one second of clock skew

    __slots__ = ("width", "last", "values")

    def __init__(self, width: int, typecode: str, now: float) -> None:
        self.width = width
        self.last = int(now)
        self.values = array(typecode, [0]) * (self.SLOTS * width)

    def _row(self, second: int) -> slice:
        base = (second % self.SLOTS) * self.width
        return slice(base, base + self.width)

    def add(self, now: float, offset: int, amount: float) -> None:
        second = int(now)
        if second == self.last:
            self.values[second % self.SLOTS * self.width + offset] += amount
            return
        if second > self.last:
            totals = self.values[self._row(self.last)]
            for s in range(max(self.last + 1, second - self.SLOTS + 1), second + 1):
                self.values[self._row(s)] = totals
            self.last = second
        # A write stamped before the latest one counts in every total since.
        for s in range(max(second, self.last - self.SLOTS + 1), self.last + 1):
            self.values[s % self.SLOTS * self.width + offset] += amount

    def _totals(self, second: int) -> array:
        second = max(min(second, self.last), self.last - self.SLOTS + 1)
        return self.values[self._row(second)]

    def window(self, seconds: int, now: float) -> list[float]:
        """Per-offset counts over the ``seconds`` whole seconds ending with
        the one ``now`` falls in."""
        end = int(now)
        return [a - b for a, b in zip(self._totals(end), self._totals(end - seconds))]


class _Metric:
    """Shared machinery: a named family of labelled series."""

    kind = "untyped"

    def __init__(self, name: str, clock: Callable[[], float] = time.monotonic) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._rings: dict[LabelKey, _Ring] = {}  # counters and histograms

    @staticmethod
    def _admit(key: LabelKey, series: Mapping[LabelKey, Any]) -> LabelKey:
        """``key``, or its overflow key once the family is full (lock held)."""
        if key in series or len(series) < MAX_SERIES:
            return key
        return tuple((k, v if k in KEPT_ON_OVERFLOW else OVERFLOW) for k, v in key)

    def _merge(
        self,
        series: dict[LabelKey, Any],
        incoming: Mapping[LabelKey, Any],
        add: Callable[[Any, Any], Any],
    ) -> None:
        """Fold a dump's ``incoming`` values into ``series`` with ``add``.
        A dump carries no history, so nor does its merge."""
        with self._lock:
            for key, value in incoming.items():
                key = self._admit(key, series)
                series[key] = add(series[key], value) if key in series else value

    def _window(self, seconds: float, now: float | None) -> dict[LabelKey, list[float]]:
        span = int(seconds)
        if not 1 <= span <= RING_SECONDS:
            raise ValueError(f"a window must span 1..{RING_SECONDS} s, got {seconds}")
        now = self._clock() if now is None else now
        with self._lock:
            return {key: ring.window(span, now) for key, ring in self._rings.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class _Scalar(_Metric):
    """One float per label set: what a counter and a gauge share."""

    def __init__(self, name: str, clock: Callable[[], float] = time.monotonic) -> None:
        super().__init__(name, clock)
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
        now = self._clock()
        with self._lock:
            key = self._admit(key, self._values)
            self._values[key] = self._values.get(key, 0.0) + amount
            ring = self._rings.get(key)
            if ring is None:
                ring = self._rings[key] = _Ring(1, "d", now)
            ring.add(now, 0, amount)

    def window(self, seconds: float, now: float | None = None) -> dict[LabelKey, float]:
        """Per label set, the sum over the trailing ``seconds``."""
        return {key: sums[0] for key, sums in self._window(seconds, now).items()}


class Gauge(_Scalar):
    """A value that can go up and down (pool load, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[self._admit(key, self._values)] = float(value)


class Histogram(_Metric):
    """Fixed-bucket histogram with per-series sum and count.

    Buckets are upper bounds; export is cumulative with a ``+Inf`` bucket,
    matching the Prometheus text exposition format.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(name, clock)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.buckets = bounds
        # per label set: (per-bucket non-cumulative counts + overflow, sum, count)
        self._series: dict[LabelKey, tuple[list[int], float, int]] = {}

    def _index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float, **labels: Any) -> None:
        v = float(value)
        key = _label_key(labels)
        idx = self._index(v)
        now = self._clock()
        with self._lock:
            key = self._admit(key, self._series)
            counts, total, n = self._series.get(key) or ([0] * (len(self.buckets) + 1), 0.0, 0)
            counts[idx] += 1
            self._series[key] = (counts, total + v, n + 1)
            ring = self._rings.get(key)
            if ring is None:
                ring = self._rings[key] = _Ring(len(self.buckets) + 1, "q", now)
            ring.add(now, idx, 1)

    def window(self, seconds: float, now: float | None = None) -> dict[LabelKey, list[float]]:
        """Per label set, the per-bucket counts (``+Inf`` last) observed over
        the trailing ``seconds``."""
        return self._window(seconds, now)

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
            snap[f"p{q}"] = bucket_quantile(self.buckets, counts, q)
        return snap

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

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
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
            metric = cls(name, clock=self.clock, **kwargs)
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
                metric._merge(metric._values, payload["series"], lambda a, b: a + b)
            elif kind == "gauge":
                metric = self.gauge(name)
                metric._merge(metric._values, payload["series"], lambda _, b: b)
            elif kind == "histogram":
                metric = self.histogram(name, buckets=payload["buckets"])
                if metric.buckets != tuple(payload["buckets"]):
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch on merge"
                    )
                series = {k: (list(c), s, n) for k, (c, s, n) in payload["series"].items()}
                metric._merge(
                    metric._series,
                    series,
                    lambda a, b: ([x + y for x, y in zip(a[0], b[0])], a[1] + b[1], a[2] + b[2]),
                )
            else:  # pragma: no cover - future kinds
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
