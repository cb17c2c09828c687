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
  designed, and it is tracked separately by the windowed counters.
* **latency** — fraction of requests completing under a target; the
  budget is the tolerated fraction of slow requests (default 1%, i.e. the
  target is effectively a p99 bound).

Windows are 60 s / 600 s — the canonical 5 m / 1 h pair scaled ~5× for
sim-time compression.  Burn thresholds
follow the workbook: fast = 14.4 (2% of a 30-day budget in an hour →
page), slow = 6.0 (5% in six hours → warn).
"""

from __future__ import annotations

from typing import Any

from .timeseries import RingCounter

__all__ = ["SLOTracker", "Objective", "FAST_BURN", "SLOW_BURN"]

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

#: Alert severity order, for taking the worst across objectives.
_SEVERITY = {"ok": 0, "warn": 1, "page": 2}


class Objective:
    """One SLI with a fractional error budget, observed over two windows."""

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
        # Per window: one ring for total events, one for bad events.
        self._total_short = RingCounter(short_window_s)
        self._bad_short = RingCounter(short_window_s)
        self._total_long = RingCounter(long_window_s)
        self._bad_long = RingCounter(long_window_s)

    def record(self, good: bool, now: float | None = None) -> None:
        self._total_short.add(1.0, now)
        self._total_long.add(1.0, now)
        if not good:
            self._bad_short.add(1.0, now)
            self._bad_long.add(1.0, now)

    @staticmethod
    def _burn(bad: float, total: float, budget: float) -> float:
        if total <= 0:
            return 0.0
        return (bad / total) / budget

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        total_s = self._total_short.total(now)
        bad_s = self._bad_short.total(now)
        total_l = self._total_long.total(now)
        bad_l = self._bad_long.total(now)
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


class SLOTracker:
    """Availability + latency objectives for one service surface."""

    def __init__(self, latency_target_s: float = LATENCY_TARGET_S) -> None:
        self.latency_target_s = latency_target_s
        self.availability = Objective("availability", AVAILABILITY_BUDGET)
        self.latency = Objective("latency", LATENCY_BUDGET)

    def record(
        self,
        ok: bool,
        latency_s: float | None = None,
        now: float | None = None,
    ) -> None:
        """Record one served request.

        ``ok=False`` spends availability budget.  ``latency_s`` (when the
        request completed at all) spends latency budget if it exceeds the
        target; failed requests don't double-count against latency.
        """
        self.availability.record(ok, now)
        if ok and latency_s is not None:
            self.latency.record(latency_s <= self.latency_target_s, now)

    def snapshot(self, now: float | None = None) -> dict[str, Any]:
        objectives = [
            self.availability.snapshot(now),
            self.latency.snapshot(now),
        ]
        worst = max(objectives, key=lambda o: _SEVERITY[o["state"]])
        return {
            "state": worst["state"],
            "latency_target_s": self.latency_target_s,
            "objectives": objectives,
        }

    def state(self, now: float | None = None) -> str:
        return self.snapshot(now)["state"]
