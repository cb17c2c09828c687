"""The repository's benchmark: real-path HTTP jobs, attributed layer by layer.

The driver's form (see ``BENCHMARK.json``)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit, checks every output, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  Without
``--workload`` it runs all five workloads, timed and traced.  Noise tooling:
``--calibrate N`` (spread over N runs of the same inputs), ``--out``/
``--compare A B`` (do two sets agree within the bounds), ``--smoke`` (tiny
inputs).
See README.md for workloads, metrics and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

if __package__ in (None, ""):  # run as a script: make ``benchmarks.e2e`` importable
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.e2e import PINNED, REPO_ROOT, harness, inputs, stats, walk  # noqa: E402
from benchmarks.e2e.harness import OUT_DIR  # noqa: E402

CONTRACT = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]

#: Set-ups per timed run; ``setup_s`` is their median (two slow ones of five
#: do not move it).
SETUP_REPEATS = 5
#: A traced run splits ``--seconds`` between its phases: the closed loops
#: against the confined server, the same against a free-running one, the
#: open-loop probe (per rate) and the staged walk.
TRACE_HTTP_SHARE, TRACE_PROBE_SHARE, TRACE_WALK_SHARE = 0.25, 0.1, 0.2


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    def lines(sub: str) -> int:
        return sum(
            sum(1 for _ in path.open("rb")) for path in (REPO_ROOT / sub).rglob("*.py")
        )

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned": PINNED,
        "loadavg_1m": load,
        "loaded": load > nproc,  # flagged, never failed: numbers may be inflated
        "git_sha": sha or "unknown",
        "src_lines": lines("src"),
        "tests_lines": lines("tests"),
    }


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict[str, Any]:
    """One workload, one mode; returns the result record.  The server child
    and this process run on the same confined cores (see ``confined_cpus``)."""
    every, confined = sorted(os.sched_getaffinity(0)), harness.confined_cpus()
    os.sched_setaffinity(0, confined)
    try:
        return _run_once(name, seed, seconds, trace, smoke, confined, every)
    finally:
        os.sched_setaffinity(0, every)


def _run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    server_cpus: list[int],
    every_cpu: list[int],
) -> dict[str, Any]:
    workload = inputs.make_workload(name, seed, seconds, smoke)
    if trace:
        http = harness.run_http(
            workload, seconds * TRACE_HTTP_SHARE, 1, server_cpus, seconds * TRACE_PROBE_SHARE
        )
    else:
        http = harness.run_http(workload, seconds, 1 if smoke else SETUP_REPEATS, server_cpus)
    harness.verify(http)
    notes = [f"cluster {workload.clusters[i].name}: {why}" for i, why in http.bad_clusters.items()]
    notes += [f"job on {workload.clusters[s.cluster].name}: {s.error}" for s in http.samples if not s.ok]
    notes += harness.path_errors(http)
    attempted = len(http.samples)
    failed = attempted - len(http.good())
    if trace:
        free, free_notes = harness.free_cores(http, seconds * TRACE_HTTP_SHARE, every_cpu)
        walked = walk.traced_walks(workload, seconds * TRACE_WALK_SHARE)
        notes += free_notes + walked.byte_mismatches
        measured = {
            **harness.http_layer_metrics(http),
            **free,
            **walk.walk_metrics(walked),
            **walk.replay_metrics(workload, walked),
        }
        if measured["morphology.parity_max_abs"] > 1e-9:
            notes.append(f"scalar/stacked parity {measured['morphology.parity_max_abs']:g} > 1e-9")
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with (OUT_DIR / f"trace-{name}.jsonl").open("w") as fh:
            for record in walked.recorder.records():
                fh.write(json.dumps(record) + "\n")
        declared = PER_LAYER
    else:
        measured = harness.end_to_end(http)
        declared = END_TO_END
    if set(declared) != set(measured):
        raise RuntimeError(
            f"BENCHMARK.json and the measured metrics differ: {sorted(set(declared) ^ set(measured))}"
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not notes and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "jobs_timed": len(http.good()),
        "metrics": {
            metric: {"value": measured[metric], "unit": declared[metric]["unit"]}
            for metric in declared
        },
        "notes": notes,
    }


def show(result: dict[str, Any]) -> None:
    mode = "traced" if result["trace"] else "timed"
    print(
        f"## {result['workload']} ({mode}, seed {result['seed']}, {result['seconds']:g} s): "
        f"{result['jobs_timed']} jobs measured, {result['failed']} of {result['attempted']} failed"
    )
    print(
        f"  ({result['jobs_timed']} samples: job percentiles up to "
        f"p{stats.supported_percentile(result['jobs_timed']):g} have ten samples beyond them)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}")
    # The issue's sixth end-to-end metric; the contract carries it as the
    # result line's failed/attempted counts (a metric may never read 0).
    print(f"  {'failed_share':42s} {result['failed'] / max(1, result['attempted']):>14.6g} ratio")
    for note in result["notes"]:
        print(f"  WRONG: {note}")


def contract_line(result: dict[str, Any]) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


# -- noise tooling ---------------------------------------------------------------------
def worse_by(metric: dict[str, Any], base: float, new: float) -> float:
    """How much ``new`` is worse than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def medians(runs: list[dict[str, Any]]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        if not run["trace"]:
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(path_a: str, path_b: str) -> int:
    """Non-zero when B is worse than A beyond a bound, anything failed, or
    the two sets do not hold the same workloads and metrics."""
    sets = [json.loads(Path(p).read_text()) for p in (path_a, path_b)]
    a, b = (medians(s["runs"]) for s in sets)
    status = 0
    for workload, name in sorted(a.keys() ^ b.keys()):
        print(f"{workload} {name} is in only one of the two sets")
        status = 1
    for s, label in zip(sets, "AB"):
        for run in s["runs"]:
            if run["failed"] or not run["correct"]:
                print(f"{label}: {run['workload']} seed {run['seed']} was not correct")
                status = 1
    for key in sorted(a.keys() & b.keys()):
        workload, name = key
        metric = END_TO_END[name]
        worse = worse_by(metric, a[key], b[key])
        verdict = "REGRESSION" if worse > metric["bound"] else "ok"
        if verdict != "ok":
            status = 1
        print(
            f"{workload:16s} {name:24s} A {a[key]:12.6g}  B {b[key]:12.6g} "
            f"{metric['unit']:6s} worse by {worse:+7.2%} (bound {metric['bound']:.0%}) {verdict}"
        )
    return status


def report_spread(runs: list[dict[str, Any]]) -> int:
    """Per workload and end-to-end metric: the values, median, quartiles and
    spread; non-zero when a spread reaches its bound (``setup_s`` excepted,
    as in the driver's rule) or a run was not correct."""
    status = 0
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        if any(r["failed"] or not r["correct"] for r in mine):
            print(f"{name}: some runs were not correct")
            status = 1
        for metric_name, metric in END_TO_END.items():
            values = [r["metrics"][metric_name]["value"] for r in mine]
            print(f"{name:16s} {metric_name:24s} " + " ".join(f"{v:.5g}" for v in values))
            q1, q2, q3 = stats.quartiles(values)
            share = stats.spread(values)
            bound = metric["bound"]
            verdict = "steady" if share < bound / 3 else "wide" if share < bound else "UNRESOLVED"
            if verdict == "UNRESOLVED" and metric_name != "setup_s":
                status = 1
            print(
                f"{name:16s} {metric_name:24s} median {q2:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} "
                f"{metric['unit']:6s} spread {share:6.2%} of bound {bound:.0%}: {verdict}"
            )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=None, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="two tiny clusters per workload")
    parser.add_argument("--out", help="write the set of results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--calibrate", type=int, metavar="N", help="N timed runs of the same inputs per workload"
    )
    args = parser.parse_args(argv)
    if args.calibrate is not None and args.calibrate < 2:
        parser.error("--calibrate needs at least 2 runs to have a spread")

    if args.compare:
        return compare(*args.compare)
    names = [args.workload] if args.workload else WORKLOADS
    env = environment()
    print("env " + json.dumps(env))
    if env["loaded"]:
        print(f"WARNING: 1-min load average {env['loadavg_1m']:.2f} exceeds {env['nproc']} cores")
    # One workload and one mode is the driver's form; without --trace, both
    # modes (a smoke pass or a calibration: timed only).
    both = args.trace is None and not args.smoke and not args.calibrate
    modes = [False, True] if both else [bool(args.trace)]
    repeats = args.calibrate or 1  # the same seed: machine noise, not input variance
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    started = time.perf_counter()
    results = [
        run_once(name, args.seed, seconds, mode, args.smoke)
        for name in names
        for _ in range(repeats)
        for mode in modes
    ]
    if args.calibrate:
        status = report_spread(results)
    else:
        for result in results:
            show(result)
        status = 0 if all(r["correct"] for r in results) else 1
    print(f"total {time.perf_counter() - started:.1f} s")
    if args.out:
        Path(args.out).write_text(json.dumps({"env": env, "runs": results}, indent=1))
    if len(results) == 1:
        print(contract_line(results[0]))
    return status


if __name__ == "__main__":
    sys.exit(main())
