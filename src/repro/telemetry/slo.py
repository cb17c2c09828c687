"""SLO burn-rate tracking: multi-window error budgets for the serving tier.

Implements the multi-window, multi-burn-rate alerting pattern (Google SRE
workbook): each objective is evaluated over a *short* and a *long*
trailing window, and an alert fires only when **both** windows exceed a
burn-rate threshold — the long window proves the budget is really being
spent, the short window proves it is *still* being spent (so alerts clear
promptly once the bleeding stops).

Two objectives ship by default:

* **availability** — fraction of requests that did not fail (5xx /
  handler error).  Deliberate load shedding (429/503 with ``Retry-After``)
  is *not* an SLO violation: backpressure is the system working as
  designed, and it is counted separately (``serve_shed_total``).
* **latency** — fraction of requests completing under a target; the
  budget is the tolerated fraction of slow requests (default 1%, i.e. the
  target is effectively a p99 bound).

Windows are 60 s / 600 s — the canonical 5 m / 1 h pair scaled ~5× for
sim-time compression; both are reads of the registry's per-second
history of :data:`REQUESTS` and :data:`SLO_LATENCY`.  Burn thresholds
follow the workbook: fast = 14.4 (2% of a 30-day budget in an hour →
page), slow = 6.0 (5% in six hours → warn).
"""

from __future__ import annotations

from typing import Any, Callable

from .metrics import Counter, Histogram, MetricsRegistry

__all__ = ["Objective", "FAST_BURN", "SLOW_BURN", "failed", "slo_snapshot"]

#: Burn-rate thresholds (multiples of sustainable budget spend).
FAST_BURN = 14.4
SLOW_BURN = 6.0

#: Default short/long evaluation windows, seconds (5m/1h scaled to sim time).
SHORT_WINDOW_S = 60.0
LONG_WINDOW_S = 600.0

#: The serving tier's objectives: 99.9 % of requests do not fail, and 99 %
#: complete under the latency target (so the target is in effect a p99 bound).
AVAILABILITY_BUDGET = 0.001
LATENCY_BUDGET = 0.01
LATENCY_TARGET_S = 0.5

#: The availability SLI's events: every request the server wrote, its
#: ``status`` label telling a failure.
REQUESTS = "serve_requests_total"
#: The latency SLI's events: the duration of every request that did not
#: fail and was no long-poll, labelled ``shed`` true or false.
SLO_LATENCY = "slo_latency_seconds"

#: Alert severity order, for taking the worst across objectives.
_SEVERITY = {"ok": 0, "warn": 1, "page": 2}

#: ``read(window_s)`` -> (events, bad events) over that trailing window.
Reader = Callable[[float], tuple[float, float]]


def failed(status: int | str) -> bool:
    """A 5xx, or no status at all (the response was aborted), spends
    availability budget; a shed (429/503 with ``Retry-After``) does not.
    ``status`` may be a ``status`` label, which an overflow keeps."""
    return int(status) == 0 or int(status) >= 500


class Objective:
    """One SLI with a fractional error budget, read over two windows."""

    def __init__(
        self,
        name: str,
        budget: float,
        short_window_s: float = SHORT_WINDOW_S,
        long_window_s: float = LONG_WINDOW_S,
    ) -> None:
        if not 0.0 < budget < 1.0:
            raise ValueError(f"budget must be a fraction in (0, 1), got {budget}")
        self.name = name
        self.budget = budget
        self.short_window_s = short_window_s
        self.long_window_s = long_window_s

    @staticmethod
    def _burn(bad: float, total: float, budget: float) -> float:
        if total <= 0:
            return 0.0
        return (bad / total) / budget

    def snapshot(self, read: Reader) -> dict[str, Any]:
        total_s, bad_s = read(self.short_window_s)
        total_l, bad_l = read(self.long_window_s)
        burn_short = self._burn(bad_s, total_s, self.budget)
        burn_long = self._burn(bad_l, total_l, self.budget)
        if burn_short >= FAST_BURN and burn_long >= FAST_BURN:
            state = "page"
        elif burn_short >= SLOW_BURN and burn_long >= SLOW_BURN:
            state = "warn"
        else:
            state = "ok"
        bad_frac_long = (bad_l / total_l) if total_l > 0 else 0.0
        return {
            "objective": self.name,
            "budget": self.budget,
            "state": state,
            "burn_short": round(burn_short, 4),
            "burn_long": round(burn_long, 4),
            "window_short_s": self.short_window_s,
            "window_long_s": self.long_window_s,
            "events_short": total_s,
            "bad_short": bad_s,
            "events_long": total_l,
            "bad_long": bad_l,
            # Fraction of the long-window budget still unspent, clamped ≥ 0.
            "budget_remaining": round(max(0.0, 1.0 - bad_frac_long / self.budget), 4),
        }


def availability(registry: MetricsRegistry, now: float) -> Reader:
    """Requests, and failed requests, over a window of :data:`REQUESTS`."""

    def read(window_s: float) -> tuple[float, float]:
        family = registry.get(REQUESTS)
        if not isinstance(family, Counter):
            return 0.0, 0.0
        counts = family.window(window_s, now)
        bad = sum(n for key, n in counts.items() if failed(dict(key)["status"]))
        return sum(counts.values()), bad

    return read


def latency(registry: MetricsRegistry, latency_target_s: float, now: float) -> Reader:
    """Judged requests, and those slower than the target, over a window of
    :data:`SLO_LATENCY` (its buckets up to the target are the good ones)."""

    def read(window_s: float) -> tuple[float, float]:
        family = registry.get(SLO_LATENCY)
        if not isinstance(family, Histogram):
            return 0.0, 0.0
        slow = [bound > latency_target_s for bound in family.buckets] + [True]
        series = family.window(window_s, now).values()
        total = sum(sum(counts) for counts in series)
        return total, sum(n for counts in series for n, s in zip(counts, slow) if s)

    return read


AVAILABILITY = Objective("availability", AVAILABILITY_BUDGET)
LATENCY = Objective("latency", LATENCY_BUDGET)


def slo_snapshot(
    registry: MetricsRegistry, latency_target_s: float, now: float | None = None
) -> dict[str, Any]:
    """Both objectives' burn, read from the registry's windows at ``now``."""
    now = registry.clock() if now is None else now
    objectives = [
        AVAILABILITY.snapshot(availability(registry, now)),
        LATENCY.snapshot(latency(registry, latency_target_s, now)),
    ]
    worst = max(objectives, key=lambda o: _SEVERITY[o["state"]])
    return {
        "state": worst["state"],
        "latency_target_s": latency_target_s,
        "objectives": objectives,
    }
