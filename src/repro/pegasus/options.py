"""Planner configuration."""

from __future__ import annotations

from dataclasses import dataclass
from repro.utils.rng import DEMO_SEED


@dataclass(frozen=True)
class PlannerOptions:
    """Knobs of a Pegasus planning run.

    Attributes
    ----------
    output_site:
        The "user-specified location U" of Figure 4; final products are
        staged out there.  ``None`` leaves products at their execution site.
    register_outputs:
        Add registration nodes publishing new products into the RLS
        ("if the user requested that all the data be published").
    site_selection:
        Policy name: ``"random"`` (the paper's default — "picks a random
        location to execute from among the returned locations"),
        ``"round-robin"``, or ``"least-loaded"``.
    replica_selection:
        ``"random"`` (the paper: "Pegasus currently picks the source
        location at random") or ``"first"`` (deterministic, for tests).
    enable_reduction:
        Apply the Abstract DAG Reduction against the RLS.  Disabling it is
        the ablation baseline for the §3.2 reuse claim.
    seed:
        RNG seed for the random policies.
    """

    output_site: str | None = None
    register_outputs: bool = True
    site_selection: str = "random"
    replica_selection: str = "random"
    enable_reduction: bool = True
    seed: int = DEMO_SEED
