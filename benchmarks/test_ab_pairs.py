"""Self-tests of the pair judge in ``scripts/ab_pairs.py`` (not tier-1)."""

from __future__ import annotations

import importlib.util

import pytest

from benchmarks import gates

_spec = importlib.util.spec_from_file_location(
    "ab_pairs", gates.REPO_ROOT / "scripts" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

#: ``galaxies_per_s``: higher is better, bound 25 %.
METRIC = "galaxies_per_s"
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
WIDE = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 65.0, 135.0]


def runs(values: list[float]) -> list[dict]:
    """Runs whose every end-to-end metric reads 100 but ``METRIC``."""
    names = [m["name"] for m in ab_pairs.CONTRACT["end_to_end"]]
    return [
        {"failed": 0, "correct": True,
         "metrics": {n: {"value": v if n == METRIC else 100.0} for n in names}}
        for v in values
    ]


@pytest.mark.parametrize(
    "parent, change, verdict, status",
    [
        (PARENT, [v * 1.5 for v in PARENT], "GAIN", 0),
        (PARENT, [v * 0.5 for v in PARENT], "REGRESSION", 1),
        (PARENT, [v * 0.9 for v in PARENT], "LOSS", 0),
        (WIDE, [v * 1.01 for v in WIDE], "unresolved", 0),
        (WIDE, [141.0] * 10, "level", 0),
        (PARENT, PARENT[::-1], "level", 0),
    ],
    ids=["gain", "regression", "loss", "unresolved", "wide-but-every-run-better", "level"],
)
def test_judge_verdicts(parent, change, verdict, status, capsys):
    got_status, verdicts = ab_pairs.judge(runs(parent), runs(change))
    assert verdicts[METRIC]["verdict"] == verdict
    assert got_status == status
    assert f": {verdict}" in capsys.readouterr().out
