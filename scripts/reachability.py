#!/usr/bin/env python3
"""Reachability ledger: which lines of ``src/repro`` does the product execute?

A stdlib line tracer in a temporary ``sitecustomize.py`` on ``PYTHONPATH``
makes every python process a command starts trace itself and dump its hits each
second (a SIGKILLed shard worker still reports).  Stages: **product** = the CI
``smoke`` matrix + ``benchmarks/e2e/run.py --smoke`` + one real invocation of
every ``repro`` verb, live servers included; ``--record`` adds the paper
record, ``gates.py --quick`` and ``examples/``; ``--tests`` adds tier-1.
"Executable" is every line in any code object's ``co_lines()``; a function is
*entered* when a call event was seen for its code object.  ``--record --tests``
regenerates the ledger in ``docs/reachability.md``; ``--check`` (implies
``--record``) exits 1 when a module has no function entered by a product or
record path.  ``gates.py`` misses its floors under the tracer, so its exit
status is ignored; any other failure exits 1.  Needs Python >= 3.11.
"""

import argparse
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG, DOC = ROOT / "src" / "repro", ROOT / "docs" / "reachability.md"
BEGIN, END = "<!-- ledger:begin -->", "<!-- ledger:end -->"
UNWIRED = {"adaptive/deadline.py"}  # exempt from --check: docs/reachability.md, "Un-wired but kept"

TRACER = '''# sitecustomize.py of one stage: @OUT@ and @PKG@ are filled in by Stage
import atexit, json, os, sys, threading, time
_hits = {}  # file -> lines executed, plus minus the first line of each code object called
_path = os.path.join("@OUT@", f"{os.getpid()}-{time.time_ns()}.reach")
def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local
def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename not in _hits:
        if not code.co_filename.startswith("@PKG@"):
            return None
        _hits[code.co_filename] = set()
    _hits[code.co_filename].add(-code.co_firstlineno)
    return _local
def _dump():
    tmp = f"{_path}.{threading.get_ident()}"  # the pump thread and atexit may overlap
    with open(tmp, "w") as fh:
        json.dump({f: sorted(v) for f, v in list(_hits.items())}, fh)
    os.replace(tmp, _path)
def _pump():
    while True:
        time.sleep(1.0)
        _dump()
threading.Thread(target=_pump, daemon=True).start()
atexit.register(_dump)
threading.settrace(_trace)
sys.settrace(_trace)
'''

CI_SMOKE = [  # .github/workflows/ci.yml `smoke` matrix + the benchmark smoke
    "scripts/scheduler_smoke.py --jobs 48", "scripts/serve_smoke.py --requests 200",
    "scripts/observability_smoke.py --requests 150", "benchmarks/e2e/run.py --smoke",
    "scripts/shard_smoke.py --jobs 20 --users 4 --shards 4", "-m repro chaos --cluster A3526 --json",
    "-m repro chaos --profile worker-crash --json", "-m repro chaos --profile slow-site --json",
]
VERBS = [  # one real invocation each, in order (later ones read earlier outputs)
    "clusters", "registry", "campaign", "dressler A2029", "bands A3526", "overlay A3526",
    "analyze A3526 --table --report --trace trace.jsonl --metrics metrics.prom",
    "telemetry report trace.jsonl", "telemetry report --selftest --quiet", "shard map --json",
    "dynamics A3526 --shuffles 50", "submit alice A3526 --journal j.jsonl", "queue --journal j.jsonl",
    "serve --journal j.jsonl", "queue --journal j.jsonl --json",
    "loadgen --scenario herd --requests 20", "explain A3526 A3526-morphology.vot",
]
LIVE = [  # (server verb, client verbs given its --url); stopped with SIGTERM
    ("serve-http --observe", ["top --once", "loadgen --scenario steady --requests 8"]),
    ("serve-fleet --shards 2 --data-dir fleet", ["loadgen --scenario steady --requests 8"]),
]
STAGES = {
    "product": [*CI_SMOKE, *(f"-m repro {verb}" for verb in VERBS), *LIVE,
                "-m repro queue --fleet-dir fleet --json"],
    "record": ["-m pytest benchmarks -q --benchmark-disable -p no:cacheprovider",
               *(f"examples/{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))),
               "benchmarks/gates.py --quick --out {work}"],
    "tests": ["-m pytest -q -p no:cacheprovider"],
}


class Stage:
    """One traced set of commands: their processes dump ``*.reach`` into ``dir``, the verbs' cwd."""

    def __init__(self, tmp: str, name: str) -> None:
        self.name, self.dir, self.failed = name, Path(tmp, name), []
        self.dir.mkdir()
        tracer = TRACER.replace("@OUT@", str(self.dir)).replace("@PKG@", str(PKG) + os.sep)
        (self.dir / "sitecustomize.py").write_text(tracer)
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (self.dir, ROOT / "src", ROOT)))}

    def run(self, command: str | tuple[str, list[str]]) -> None:
        if isinstance(command, tuple):
            return self.live(*command)
        cwd = self.dir if command.startswith("-m repro") else ROOT  # verbs write files
        argv = [sys.executable, *shlex.split(command.format(work=self.dir))]
        print(f"  $ python {shlex.join(argv[1:])}", flush=True)
        proc = subprocess.run(argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode and "gates.py" in command:
            print("    (gates.py misses its timing floors under the tracer: exit status ignored)")
        elif proc.returncode:
            self.failed.append(command)
            print(f"    exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def live(self, server: str, clients: list[str]) -> None:
        print(f"  $ python -m repro {server} --port 0 &", flush=True)
        argv = [sys.executable, "-m", "repro", *shlex.split(server), "--port", "0"]
        proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            url = proc.stdout.readline().split("url=")[1].split()[0]
            for client in clients:
                self.run(f"-m repro {client} --url {url}")
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=120)
        self.failed += [server] if proc.returncode else []

    def hits(self) -> dict[str, set[int]]:
        merged: dict[str, set[int]] = {}  # same shape as the tracer's _hits
        for dump in self.dir.glob("*.reach"):
            for name, numbers in json.loads(dump.read_text()).items():
                merged.setdefault(os.path.realpath(name), set()).update(numbers)
        return merged


def ledger(stages: list[Stage]) -> tuple[str, list[str]]:
    """The markdown ledger block and the modules ``--check`` rejects."""
    hits = [stage.hits() for stage in stages]
    shipped = sum(stage.name != "tests" for stage in stages) - 1  # last non-tests stage
    rows, cold, unreached, totals = [], [], [], [0] * (2 + len(stages))
    for path in sorted(PKG.rglob("*.py")):
        source, key = path.read_text(encoding="utf-8"), os.path.realpath(path)
        executable, functions, todo = set(), [], [compile(source, str(path), "exec")]
        while todo:  # every code object of the module
            co = todo.pop()
            todo += [const for const in co.co_consts if isinstance(const, type(co))]
            executable |= {line for _, _, line in co.co_lines() if line}
            if co.co_flags & 1 and not co.co_name.startswith("<"):  # a def, not a class/lambda
                functions.append((co.co_firstlineno, co.co_qualname.replace(".<locals>", "")))
        seen, reached, entered = set(), [], []
        for hit in hits:  # cumulative over the stages
            seen |= hit.get(key, set())
            reached.append(len(seen & executable))
            entered.append({-n for n in seen if n < 0})
        row = [source.count("\n"), len(executable), *reached]
        totals = [t + r for t, r in zip(totals, row)]
        module = str(path.relative_to(PKG))
        rows.append(f"| `{module}` | " + " | ".join(map(str, row)) + " |")
        missing = [(first, name) for first, name in functions if first not in entered[shipped]]
        cold += [f"- `{module}` · `{name}` — " + ("tests only" if first in entered[-1] else "nothing")
                 for first, name in missing]
        if len(missing) == len(functions) and (functions or not reached[shipped]):
            unreached.append(module)  # no function entered; or no functions and never imported
    names = [stage.name if i == 0 else f"+{stage.name}" for i, stage in enumerate(stages)]
    share = " · ".join(f"{n} {100 * t / totals[1]:.1f} %" for n, t in zip(names, totals[2:]))
    block = [
        f"Executable lines reached, cumulative: {share}.", "",
        "| " + " | ".join(["module", "lines", "executable", *names]) + " |",
        "|" + "---|" * (3 + len(names)), *rows,
        "| **total** | " + " | ".join(f"**{t}**" for t in totals) + " |", "",
        f"### Functions no product or record path enters ({len(cold)})", "", *cold,
    ]
    return "\n".join(block), unreached


def main() -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="add the paper record, gates and examples")
    parser.add_argument("--tests", action="store_true", help="add the tier-1 suite")
    parser.add_argument("--check", action="store_true", help="exit 1 on a module they never enter")
    args = parser.parse_args()
    wanted = {"product": True, "record": args.record or args.check, "tests": args.tests}
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        stages = [Stage(tmp, name) for name in STAGES if wanted[name]]
        for stage in stages:
            for command in STAGES[stage.name]:
                stage.run(command)
        block, unreached = ledger(stages)
    print(block.split("\n", 1)[0])
    if len(stages) == 3:
        head, rest = DOC.read_text(encoding="utf-8").split(BEGIN)
        DOC.write_text(f"{head}{BEGIN}\n{block}\n{END}{rest.split(END)[1]}", encoding="utf-8")
    problems = [f"FAILED under trace: {c}" for stage in stages for c in stage.failed]
    problems += [f"UNREACHED by product/record: {m}" for m in unreached if args.check and m not in UNWIRED]
    return "\n".join(problems) or 0  # sys.exit prints a message and exits 1


if __name__ == "__main__":
    sys.exit(main())
