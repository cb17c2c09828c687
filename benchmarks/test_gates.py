"""Self-tests of the gate driver (``python -m pytest benchmarks -q``; not tier-1).

The well-formed entries are the last ones committed to the three
trajectory files, so these also assert that the record in the repository
is one ``gates.py`` wrote and passes.
"""

from __future__ import annotations

import copy
import json

import pytest

from benchmarks import gates


def last_entry(filename: str) -> dict:
    return json.loads((gates.REPO_ROOT / filename).read_text())["history"][-1]


@pytest.mark.parametrize("filename", gates.GATES)
def test_committed_entry_passes_its_gates(filename):
    _, check = gates.GATES[filename]
    assert check(last_entry(filename)) == []


@pytest.mark.parametrize(
    "filename, path, value, complaint",
    [
        ("BENCH_morphology.json", ("results", "galmorph_64", "speedup"), 1.9, "floor"),
        ("BENCH_morphology.json", ("results", "galmorph_batch_8", "speedup"), 3.99, "floor"),
        ("BENCH_morphology.json", ("parity", "max_abs_drift"), 1e-8, "parity"),
        ("BENCH_morphology.json", ("parity", "max_abs_drift"), float("nan"), "parity"),
        ("BENCH_morphology.json", ("telemetry", "disabled_overhead_frac_of_galmorph"), 0.021, "budget"),
        ("BENCH_chaos.json", ("chaos_recovery", "recovered"), False, "differs"),
        ("BENCH_chaos.json", ("disabled_overhead", "overhead_fraction"), 0.011, "budget"),
        ("BENCH_chaos.json", ("disabled_overhead", "armed_overhead_fraction"), 0.011, "budget"),
        ("BENCH_scale.json", ("static", "makespan_s"), 4979.02, "pinned"),
        ("BENCH_scale.json", ("static", "wave_makespans_s"), [580.66] * 10, "per-wave"),
        ("BENCH_scale.json", ("byte_identity", "recovered"), False, "byte-identical"),
    ],
)
def test_doctored_entry_misses_exactly_that_gate(filename, path, value, complaint):
    entry = copy.deepcopy(last_entry(filename))
    target = entry
    for key in path[:-1]:
        target = target[key]
    assert path[-1] in target  # doctoring an existing field, not adding one
    target[path[-1]] = value
    _, check = gates.GATES[filename]
    (problem,) = check(entry)
    assert complaint in problem


@pytest.mark.parametrize("filename", gates.GATES)
def test_append_preserves_prior_entries_and_schema(filename, tmp_path):
    tracked = gates.REPO_ROOT / filename
    before = json.loads(tracked.read_text())
    trajectory = tmp_path / filename
    trajectory.write_text(tracked.read_text())

    entry = {**copy.deepcopy(before["history"][-1]), "timestamp": "later"}
    assert gates.append_entry(trajectory, entry) == len(before["history"]) + 1

    after = json.loads(trajectory.read_text())
    assert list(after) == ["history"]
    assert after["history"][:-1] == before["history"]
    assert after["history"][-1] == entry


def test_append_starts_a_trajectory_where_none_exists(tmp_path):
    assert gates.append_entry(tmp_path / "BENCH_new.json", {"mode": "quick"}) == 1
    assert json.loads((tmp_path / "BENCH_new.json").read_text()) == {
        "history": [{"mode": "quick"}]
    }


def test_timed_rounds_interleaves_after_one_warm_up_each():
    calls: list[str] = []
    a, b = gates.timed_rounds(3, lambda: calls.append("a"), lambda: calls.append("b"))
    assert calls == ["a", "b"] + ["a", "b"] * 3
    assert len(a) == len(b) == 3 and min(a + b) >= 0.0


def test_quick_cuts_only_the_unfloored_kernel_rows(monkeypatch):
    monkeypatch.setattr(gates, "timed_rounds", lambda reps, *fns: [[2.0] * reps, [1.0] * reps])
    results = gates.kernel_pairs(3)
    assert set(gates.FLOORS) <= set(results)
    for name, row in results.items():
        assert row["rounds"] == (gates.ROUNDS if name in gates.FLOORS else 3), name
