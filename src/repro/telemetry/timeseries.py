"""Windowed time-series: sliding-window rates and decaying latency quantiles.

The PR-2 metrics registry is *cumulative*: counters only ever grow, and a
dashboard scraping them has to difference successive scrapes itself.  The
live observability plane needs the opposite view — "what happened in the
last second / ten seconds / minute" — without unbounded memory and without
a lock on the request hot path doing anything expensive.  Two primitives
provide it:

* :class:`RingCounter` — a ring of time buckets over a fixed span; adding
  is O(1) (index arithmetic + one float add), reading sums the live
  buckets.  :class:`WindowedCounter` stacks three rings at the canonical
  1 s / 10 s / 60 s windows.
* :class:`LatencyWindow` — a ring of per-second bounded reservoirs over
  the trailing minute; old samples *decay* by falling out of the ring, and
  each second's reservoir is capped so a traffic burst cannot balloon
  memory.  Quantiles are nearest-rank over the merged trailing window.

Everything takes an explicit ``now`` (falling back to ``time.monotonic``)
so tests — and the discrete-event simulator's scaled sim time — can drive
the windows deterministically.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Sequence

__all__ = [
    "RingCounter",
    "WindowedCounter",
    "LatencyWindow",
    "LabelledWindows",
    "nearest_rank",
]

#: The canonical windows of the observability plane, seconds.
WINDOWS: tuple[float, ...] = (1.0, 10.0, 60.0)

#: Buckets per ring: resolution is span / DEFAULT_BUCKETS.
DEFAULT_BUCKETS = 20

#: Per-second reservoir cap in a :class:`LatencyWindow`.
RESERVOIR_CAP = 64


def nearest_rank(sorted_samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 100]) of pre-sorted samples."""
    if not sorted_samples:
        return float("nan")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"quantile must be in (0, 100], got {q}")
    rank = max(1, -(-len(sorted_samples) * q // 100))  # ceil without math
    return sorted_samples[int(rank) - 1]


class RingCounter:
    """A sliding sum over ``span_s`` seconds in ``buckets`` ring slots.

    Each slot covers ``span_s / buckets`` seconds and remembers which
    absolute bucket index it last held, so stale slots are lazily zeroed
    on access — no background sweeper thread.  One short lock guards the
    two-word update; contention is bounded by the slot arithmetic being
    branch-free and allocation-free.
    """

    __slots__ = ("span_s", "resolution_s", "_n", "_sums", "_epochs", "_lock")

    def __init__(self, span_s: float, buckets: int = DEFAULT_BUCKETS) -> None:
        if span_s <= 0:
            raise ValueError(f"window span must be positive, got {span_s}")
        if buckets < 1:
            raise ValueError(f"ring needs at least one bucket, got {buckets}")
        self.span_s = float(span_s)
        self.resolution_s = self.span_s / buckets
        self._n = buckets
        self._sums = [0.0] * buckets
        self._epochs = [-1] * buckets
        self._lock = threading.Lock()

    def _index(self, now: float) -> int:
        return int(now / self.resolution_s)

    def add(self, value: float = 1.0, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        idx = self._index(now)
        slot = idx % self._n
        with self._lock:
            if self._epochs[slot] != idx:
                self._epochs[slot] = idx
                self._sums[slot] = 0.0
            self._sums[slot] += value

    def total(self, now: float | None = None) -> float:
        """Sum over the trailing window ending at ``now``."""
        now = time.monotonic() if now is None else now
        idx = self._index(now)
        oldest = idx - self._n + 1
        with self._lock:
            return sum(
                s
                for s, e in zip(self._sums, self._epochs)
                if oldest <= e <= idx
            )

    def rate(self, now: float | None = None) -> float:
        """Per-second rate over the trailing window."""
        return self.total(now) / self.span_s


class WindowedCounter:
    """One counter observed through the canonical 1 s / 10 s / 60 s windows."""

    __slots__ = ("_rings", "_lifetime", "_lock")

    def __init__(self) -> None:
        self._rings = {f"{span:g}s": RingCounter(span) for span in WINDOWS}
        self._lifetime = 0.0
        self._lock = threading.Lock()

    def add(self, now: float | None = None) -> None:
        """Count one event."""
        with self._lock:
            self._lifetime += 1.0
        for ring in self._rings.values():
            ring.add(1.0, now)

    @property
    def lifetime(self) -> float:
        with self._lock:
            return self._lifetime

    def rates(self, now: float | None = None) -> dict[str, float]:
        """``{"1s": r, "10s": r, "60s": r}`` per-second rates."""
        return {label: ring.rate(now) for label, ring in self._rings.items()}

    def snapshot(self, now: float | None = None) -> dict[str, float]:
        out = {f"rate_{label}": ring.rate(now) for label, ring in self._rings.items()}
        out["total"] = self.lifetime
        return out


class LatencyWindow:
    """Decaying quantile sketch: per-second capped reservoirs over a minute.

    ``observe`` appends into the current second's reservoir; beyond
    :data:`RESERVOIR_CAP` samples a second, random replacement keeps the
    reservoir an unbiased sample of that second.  ``quantile`` merges the
    trailing ``window_s`` seconds and takes the nearest rank — samples
    older than the ring's span have fully decayed (fallen out).
    """

    __slots__ = ("span_s", "_cap", "_slots", "_counts", "_epochs", "_rng", "_lock")

    def __init__(
        self, span_s: float = 60.0, cap: int = RESERVOIR_CAP, seed: int = 0x5EED
    ) -> None:
        if span_s < 1.0:
            raise ValueError(f"latency window must span at least 1s, got {span_s}")
        self.span_s = float(span_s)
        self._cap = cap
        n = int(self.span_s)  # one-second slots
        self._slots: list[list[float]] = [[] for _ in range(n)]
        self._counts = [0] * n
        self._epochs = [-1] * n
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, value: float, now: float | None = None) -> None:
        now = time.monotonic() if now is None else now
        idx = int(now)
        slot = idx % len(self._slots)
        with self._lock:
            if self._epochs[slot] != idx:
                self._epochs[slot] = idx
                self._slots[slot] = []
                self._counts[slot] = 0
            bucket = self._slots[slot]
            self._counts[slot] += 1
            if len(bucket) < self._cap:
                bucket.append(value)
            else:
                # Reservoir sampling: keep each of the second's n samples
                # with probability cap/n.
                pick = self._rng.randrange(self._counts[slot])
                if pick < self._cap:
                    bucket[pick] = value

    def samples(self, window_s: float | None = None, now: float | None = None) -> list[float]:
        """Sorted trailing-window samples (the merge the quantiles rank)."""
        now = time.monotonic() if now is None else now
        window = self.span_s if window_s is None else min(window_s, self.span_s)
        idx = int(now)
        oldest = idx - int(window) + 1
        with self._lock:
            merged = [
                v
                for slot, epoch in enumerate(self._epochs)
                if oldest <= epoch <= idx
                for v in self._slots[slot]
            ]
        merged.sort()
        return merged

    def quantiles(self, now: float | None = None) -> dict[str, float]:
        merged = self.samples(now=now)
        return {f"p{q}": nearest_rank(merged, q) for q in (50, 95, 99)}


class LabelledWindows:
    """A family of :class:`WindowedCounter` keyed by one label value.

    Cardinality is bounded: beyond ``max_series`` distinct labels new
    values collapse into ``"__other__"`` so a tenant-id or path explosion
    cannot grow memory without bound.
    """

    OVERFLOW = "__other__"

    def __init__(self, max_series: int = 32) -> None:
        self.max_series = max_series
        self._series: dict[str, WindowedCounter] = {}
        self._lock = threading.Lock()

    def _get(self, label: str) -> WindowedCounter:
        with self._lock:
            counter = self._series.get(label)
            if counter is None:
                if len(self._series) >= self.max_series:
                    label = self.OVERFLOW
                    counter = self._series.get(label)
                if counter is None:
                    counter = WindowedCounter()
                    self._series[label] = counter
            return counter

    def add(self, label: str, now: float | None = None) -> None:
        self._get(str(label)).add(now)

    def rates(self, now: float | None = None) -> dict[str, dict[str, float]]:
        with self._lock:
            series = dict(self._series)
        return {label: counter.rates(now) for label, counter in sorted(series.items())}

    def totals(self) -> dict[str, float]:
        with self._lock:
            return {label: c.lifetime for label, c in sorted(self._series.items())}
