"""Per-site latency estimators: decayed samples + nearest-rank quantiles.

The estimator answers two questions the static planner cannot:

* *how long will a node of this class take on this site?* — the
  prediction :class:`PredictiveSiteSelector` ranks candidates by;
* *how long is suspiciously long?* — the p95 budget the speculation
  layer watches running nodes against.

Samples decay exponentially (each new observation multiplies every
existing weight by ``decay``), so a site that recovers from a slow spell
re-earns trust within a few tens of observations instead of dragging a
whole campaign's history behind it.  Quantiles are **nearest-rank over
the decayed weights** — no interpolation, so a single outlier cannot
invent a duration nobody ever observed.

Everything is thread-safe: the local executor observes from its worker
pool while the planner predicts from the dispatcher thread.
"""

from __future__ import annotations

import threading
from collections import deque

#: Default sample window per (site, class); decayed weights make the
#: effective window smaller, this just bounds memory.
DEFAULT_WINDOW = 256


class DecayedReservoir:
    """A bounded, exponentially decayed sample set of durations."""

    def __init__(self, window: int = DEFAULT_WINDOW, decay: float = 0.97) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.window = window
        self.decay = decay
        self._samples: deque[float] = deque(maxlen=window)
        self._weights: deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        if value < 0.0:
            raise ValueError(f"negative duration: {value}")
        for i in range(len(self._weights)):
            self._weights[i] *= self.decay
        self._samples.append(float(value))
        self._weights.append(1.0)

    def __len__(self) -> int:
        return len(self._samples)

    def mean(self) -> float | None:
        """Decay-weighted mean; ``None`` with no samples."""
        if not self._samples:
            return None
        total_w = sum(self._weights)
        return sum(s * w for s, w in zip(self._samples, self._weights)) / total_w

    def quantile(self, q: float) -> float | None:
        """Nearest-rank weighted quantile; ``None`` with no samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return None
        pairs = sorted(zip(self._samples, self._weights))
        total = sum(w for _, w in pairs)
        target = q * total
        cum = 0.0
        for value, weight in pairs:
            cum += weight
            if cum >= target:
                return value
        return pairs[-1][0]


class SiteLatencyEstimator:
    """The shared ledger of observed node durations, keyed (site, class).

    A *node class* is the transformation name (``galMorph``), with
    clustered bundles suffixed by member count (``galMorph*8``) since a
    bundle's duration scales with its size.  Aggregation across classes
    (``node_class=None``) serves the site selector, which ranks sites
    before knowing which class dominates the plan.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, decay: float = 0.97) -> None:
        self._window = window
        self._decay = decay
        self._lock = threading.Lock()
        self._reservoirs: dict[tuple[str, str], DecayedReservoir] = {}

    def observe(self, site: str, node_class: str, duration: float) -> None:
        with self._lock:
            key = (site, node_class)
            reservoir = self._reservoirs.get(key)
            if reservoir is None:
                reservoir = DecayedReservoir(self._window, self._decay)
                self._reservoirs[key] = reservoir
            reservoir.observe(duration)

    def samples(self, site: str, node_class: str | None = None) -> int:
        with self._lock:
            return sum(
                len(r)
                for (s, c), r in self._reservoirs.items()
                if s == site and (node_class is None or c == node_class)
            )

    def predict(
        self, site: str, node_class: str | None = None
    ) -> float | None:
        """Expected duration of one node on ``site`` (decayed mean).

        With ``node_class=None`` the per-class means are averaged,
        weighted by sample count.  ``None`` when the site has no history.
        """
        with self._lock:
            num = 0.0
            den = 0
            for (s, c), reservoir in self._reservoirs.items():
                if s != site or (node_class is not None and c != node_class):
                    continue
                mean = reservoir.mean()
                if mean is None:
                    continue
                num += mean * len(reservoir)
                den += len(reservoir)
            return num / den if den else None

    def quantile(
        self, site: str, node_class: str, q: float
    ) -> float | None:
        with self._lock:
            reservoir = self._reservoirs.get((site, node_class))
            return reservoir.quantile(q) if reservoir is not None else None

    def best_quantile(self, node_class: str, q: float) -> float | None:
        """The *best* per-site quantile for ``node_class`` — the straggler
        budget.  Pooling across sites would let a slow site's samples
        inflate the budget until its own stragglers look normal; taking
        the minimum over sites anchors "suspiciously long" to what the
        healthiest site demonstrably achieves."""
        with self._lock:
            quantiles = [
                value
                for (s, c), reservoir in self._reservoirs.items()
                if c == node_class
                and (value := reservoir.quantile(q)) is not None
            ]
        return min(quantiles) if quantiles else None

    def class_samples(self, node_class: str) -> int:
        with self._lock:
            return sum(
                len(r) for (s, c), r in self._reservoirs.items() if c == node_class
            )

    def sites(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted({s for s, _ in self._reservoirs}))

    def snapshot(self) -> dict[str, dict[str, float]]:
        """JSON-ready ``{site: {mean, p95, samples}}`` for dashboards."""
        out: dict[str, dict[str, float]] = {}
        for site in self.sites():
            mean = self.predict(site)
            with self._lock:
                keys = [c for (s, c) in self._reservoirs if s == site]
            p95s = [
                p for c in keys if (p := self.quantile(site, c, 0.95)) is not None
            ]
            out[site] = {
                "mean_s": round(mean, 4) if mean is not None else 0.0,
                "p95_s": round(max(p95s), 4) if p95s else 0.0,
                "samples": self.samples(site),
            }
        return out
