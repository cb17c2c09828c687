"""Speculative straggler mitigation: the budget and the ledger.

A running compute node becomes a *straggler* when it exceeds its class's
pooled p95 duration times :attr:`SpeculationPolicy.p95_multiplier`.  The
executor then launches a duplicate of the node on the next-best site;
the first result wins, the loser is cancelled, and because duplicates
share the derivation signature (same job, same inputs, deterministic
body) the results are interchangeable — byte identity is preserved no
matter which copy wins.

Cost accounting is the satellite fix this module owns: a cancelled
duplicate charges **only its elapsed seconds** to the
:class:`~repro.services.transport.CostMeter` under the ``speculative``
category — never the full transport timeout.  Waiting for nothing is the
most expensive way a call can fail, but a duplicate we *chose* to kill
only cost what it actually ran.

:class:`SpeculationTracker` is the thread-safe launched/won/wasted
ledger shared by both executors and surfaced in ``repro top``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from repro import telemetry
from repro.services.transport import CostMeter

#: CostMeter category every duplicate second lands under.
SPECULATIVE_CATEGORY = "speculative"


@dataclass(frozen=True)
class SpeculationPolicy:
    """When to duplicate a running node.

    ``p95_multiplier``
        The straggler budget is ``class_p95 × p95_multiplier``: a node
        running past it is worth duplicating.
    ``min_samples``
        Observations of the node class required before any budget exists
        — speculating off two samples would duplicate half the campaign.
    ``max_active``
        Concurrent duplicates allowed per executor run (speculation must
        relieve the tail, not double the load).
    ``quantile``
        The rank the budget is taken at (p95 by default).
    ``min_budget_s``
        Floor under the budget so sub-second node classes never trip it
        on scheduling noise.
    """

    p95_multiplier: float = 1.5
    min_samples: int = 5
    max_active: int = 4
    quantile: float = 0.95
    min_budget_s: float = 0.0

    def __post_init__(self) -> None:
        if self.p95_multiplier < 1.0:
            raise ValueError("p95_multiplier must be >= 1.0")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if self.max_active < 1:
            raise ValueError("max_active must be >= 1")
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if self.min_budget_s < 0.0:
            raise ValueError("min_budget_s must be non-negative")


class SpeculationTracker:
    """Launched / won / wasted accounting, shared across executors."""

    def __init__(self, meter: CostMeter | None = None) -> None:
        self.meter = meter
        self._lock = threading.Lock()
        self._launched = 0
        self._won = 0
        self._wasted = 0
        self._wasted_seconds = 0.0

    def record_launch(self, site: str, node_id: str) -> None:
        with self._lock:
            self._launched += 1
        telemetry.count("speculation_launched_total", site=site)

    def record_win(self, site: str, node_id: str) -> None:
        """The *duplicate* finished first and its result was used."""
        with self._lock:
            self._won += 1
        telemetry.count("speculation_won_total", site=site)

    def record_waste(self, site: str, node_id: str, elapsed_s: float) -> None:
        """A duplicate (or the original it raced) was cancelled after
        ``elapsed_s`` — charge exactly that, not the transport timeout."""
        elapsed_s = max(0.0, elapsed_s)
        with self._lock:
            self._wasted += 1
            self._wasted_seconds += elapsed_s
        if self.meter is not None:
            self.meter.charge(SPECULATIVE_CATEGORY, elapsed_s)
        telemetry.count("speculation_wasted_total", site=site)
        telemetry.count("speculation_wasted_seconds_total", elapsed_s)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "launched": self._launched,
                "won": self._won,
                "wasted": self._wasted,
                "wasted_seconds": round(self._wasted_seconds, 4),
            }
