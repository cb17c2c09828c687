#!/usr/bin/env python
"""Alternating parent/change pairs of the benchmark, judged by the ten-pair rule.

Exports the committed tree of ``--base`` into a temporary directory and
runs ``benchmarks/e2e/run.py --workload W --seed S --trace 0 --out ...``
there (the parent) and in this checkout (the change), ``--pairs`` times
each, alternating which side goes first.  Then, per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the pairs the change
won (ties count for neither side), and the verdict of choosing-metrics §8:

* ``GAIN``       wins >= 9/10 of the pairs and the medians differ by more
                 than the parent's inter-quartile distance;
* ``REGRESSION`` the change's median is worse than the parent's by more
                 than the metric's bound;
* ``level``      anything else.

``--base`` defaults to ``HEAD``, i.e. the parent of uncommitted work; after
committing, pass ``HEAD~1``.  ``--record PATH`` appends the invocation's
verdicts to a ``{"history": [...]}`` file (the repo keeps ``BENCH_e2e.json``):
the change's commit (``+dirty`` when the checkout has uncommitted edits),
the parent revision, workload, seed, pairs, and per end-to-end metric both
sides' quartiles, the change's wins and the verdict.  Stdlib only; nothing
under ``benchmarks/e2e/`` is edited (the benchmark writes its scratch to
``benchmarks/e2e/out/``).

Usage::

    python scripts/ab_pairs.py --workload cold-serial [--pairs 10] [--seed 2003] [--base HEAD] \
        [--record BENCH_e2e.json]

Exits 1 on a regression or on a run that was not correct.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())


def export(rev: str, dest: Path) -> None:
    """The committed files of ``rev``: what the driver runs, nothing else."""
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run(tree: Path, workload: str, seed: int, out: Path) -> dict:
    """One timed run in ``tree``; its result record."""
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0", "--out", str(out)]
    subprocess.run(cmd, cwd=tree, stdout=subprocess.DEVNULL, check=False)
    return json.loads(out.read_text())["runs"][0]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def judge(parent: list[dict], change: list[dict]) -> tuple[int, dict[str, dict]]:
    """Print the verdict table; returns the exit status and, per metric,
    what ``--record`` keeps."""
    status, verdicts = 0, {}
    for side, runs in (("parent", parent), ("change", change)):
        bad = [i for i, r in enumerate(runs) if r["failed"] or not r["correct"]]
        if bad:
            print(f"{side}: runs {bad} were not correct or had failed jobs")
            status = 1
    print(f"{'metric':24s} {'side':6s} {'q1':>11s} {'median':>11s} {'q3':>11s}")
    for metric in CONTRACT["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        (qa1, ma, qa3), (qb1, mb, qb3) = (statistics.quantiles(v, n=4) for v in (a, b))
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        gain = sign * (mb - ma)
        if wins >= 0.9 * len(a) and gain > qa3 - qa1:
            verdict = "GAIN"
        elif -gain / ma > metric["bound"]:
            verdict, status = "REGRESSION", 1
        else:
            verdict = "level"
        verdicts[name] = {"unit": metric["unit"], "parent": [qa1, ma, qa3],
                          "change": [qb1, mb, qb3], "wins": wins, "verdict": verdict}
        print(f"{name:24s} parent {qa1:11.5g} {ma:11.5g} {qa3:11.5g} {metric['unit']}")
        print(
            f"{'':24s} change {qb1:11.5g} {mb:11.5g} {qb3:11.5g} {metric['unit']}  "
            f"wins {wins}/{len(a)}, median {gain / ma:+.1%} better, "
            f"parent IQR {(qa3 - qa1) / ma:.1%}: {verdict}"
        )
    return status, verdicts


def record(path: Path, entry: dict) -> None:
    """Append ``entry`` to the ``history`` list of the JSON file at ``path``."""
    data = json.loads(path.read_text()) if path.exists() else {"history": []}
    data["history"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=2003)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="the parent revision")
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="append this invocation's verdicts to a history file")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 pairs to have quartiles")
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": REPO}
        export(args.base, trees["parent"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run(trees[side], args.workload, args.seed, Path(tmp) / f"{side}-{i}.json")
                runs[side].append(result)
                value = result["metrics"]["galaxies_per_s"]["value"]
                print(f"pair {i + 1}/{args.pairs} {side}: galaxies_per_s {value:.5g}", flush=True)
    print(f"## {args.workload}, seed {args.seed}, {args.pairs} pairs, parent = {args.base}")
    status, verdicts = judge(runs["parent"], runs["change"])
    if args.record:
        dirty = "+dirty" if git("status", "--porcelain", "--untracked-files=no") else ""
        record(args.record, {
            "commit": git("rev-parse", "HEAD") + dirty,
            "parent": git("rev-parse", args.base),
            "workload": args.workload,
            "seed": args.seed,
            "pairs": args.pairs,
            "metrics": verdicts,
        })
    return status


if __name__ == "__main__":
    sys.exit(main())
