#!/usr/bin/env python3
"""Reachability ledger: which lines and which options of ``src/repro`` does the product use?

A stdlib line tracer in a temporary ``sitecustomize.py`` on ``PYTHONPATH``
makes every python process a command starts trace itself and dump its hits each
second (a SIGKILLed shard worker still reports).  Stages: **product** = the CI
``smoke`` matrix + ``benchmarks/e2e/run.py --smoke`` + one real invocation of
every ``repro`` verb, live servers included; ``--record`` adds the paper
record, ``gates.py --quick`` and ``examples/``; ``--tests`` adds tier-1.
"Executable" is every line in any code object's ``co_lines()``; a function is
*entered* when a call event was seen for its code object.  At each entry the
tracer also compares every defaulted parameter with its declared default (the
fields of a generated dataclass ``__init__`` and the flags of an argparse
``cmd_*(args)`` included): an *option* is *set* by a stage when some call gave
it a different value, wherever a ``**kwargs`` relay finally landed it.
``--record --tests`` regenerates the ledger in ``docs/reachability.md``;
``--check`` (implies ``--record``) exits 1 when a module has no function
entered by a product or record path, when a function is entered by neither and
is no declaration stub and matches no row of the doc's acquitted table, when an
option of a callable they enter is set by neither and matches no row of the
doc's kept-on-purpose table, or when a row of either table matches nothing
declared.  ``gates.py`` misses its floors under the tracer, so its exit status
is ignored; the two unrecoverable chaos profiles must exit 1, as CI checks; any
other failure exits 1.  Needs Python >= 3.11.
"""

import argparse
import ast
import fnmatch
import inspect
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG, DOC = ROOT / "src" / "repro", ROOT / "docs" / "reachability.md"
BEGIN, END = "<!-- ledger:begin -->", "<!-- ledger:end -->"
KEPT_BEGIN, KEPT_END = "<!-- kept:begin -->", "<!-- kept:end -->"
ACQUITTED_BEGIN, ACQUITTED_END = "<!-- acquitted:begin -->", "<!-- acquitted:end -->"


def cli_flags(parser):
    """``{handler code object: (verb, {dest: (flag, default)})}`` of an argparse tree."""
    found, todo = {}, [parser]
    while todo:
        node = todo.pop()
        flags = {}
        for action in node._actions:
            if hasattr(action, "choices") and isinstance(action.choices, dict):
                todo += list(action.choices.values())  # a sub-command table
            elif action.option_strings and action.dest != "help":
                flags[action.dest] = (action.option_strings[-1], action.default)
        handler = node._defaults.get("fn")
        if handler is not None:
            found[handler.__code__] = (node.prog.split(" ", 1)[-1], flags)
    return found


TRACER = '''# sitecustomize.py of one stage: @OUT@ and @PKG@ are filled in by Stage
import atexit, dataclasses, gc, json, os, sys, threading, time, types
_hits = {}  # file -> lines executed, plus minus the first line of each code object called
_set = {}  # file -> {first line of a def | dataclass qualname | "verb": [options given a non-default value]}
_specs = {}  # code object -> None, or (file, callable key, [(parameter, default, default_factory)])
_flags = None  # cli_flags(build_parser()) of the traced package, built at the first cmd_* call
_path = os.path.join("@OUT@", f"{os.getpid()}-{time.time_ns()}.reach")
_NONE = dataclasses.MISSING
@CLI_FLAGS@
def _same(value, default):
    if value is default:
        return True
    try:
        return bool(value == default) and isinstance(value, bool) == isinstance(default, bool)
    except Exception:  # an array's ambiguous truth value: somebody passed data
        return False
def _spec(frame, code):
    name = code.co_filename
    if name.startswith("@PKG@") and not code.co_name.startswith("<"):
        fn = frame.f_globals
        for part in code.co_qualname.split("."):  # module -> class -> def, without running descriptors
            fn = (fn if isinstance(fn, dict) else vars(fn)).get(part) if part != "<locals>" else None
            if fn is None:
                break
        fn = getattr(fn, "__func__", None) or getattr(fn, "fget", None) or fn
        while getattr(fn, "__code__", None) is not code and hasattr(fn, "__wrapped__"):
            fn = fn.__wrapped__
        if getattr(fn, "__code__", None) is not code:  # a closure or a rebound name: search the heap
            fn = next((f for f in gc.get_referrers(code)
                       if isinstance(f, types.FunctionType) and f.__code__ is code), None)
            if fn is None:
                return None
        positional = code.co_varnames[:code.co_argcount]
        defaults = fn.__defaults__ or ()
        params = list(zip(positional[len(positional) - len(defaults):], defaults))
        params += list((fn.__kwdefaults__ or {}).items())
        return (name, code.co_firstlineno, [(p, d, _NONE) for p, d in params]) if params else None
    if name == "<string>" and code.co_name == "__init__":  # a generated dataclass __init__
        cls = next((k for k in type(frame.f_locals.get("self")).__mro__
                    if getattr(k.__dict__.get("__init__"), "__code__", None) is code), None)
        if cls is None or not dataclasses.is_dataclass(cls):
            return None
        module = getattr(sys.modules.get(cls.__module__), "__file__", None) or ""
        if not module.startswith("@PKG@"):
            return None
        return (module, cls.__qualname__,
                [(f.name, f.default, f.default_factory) for f in dataclasses.fields(cls)
                 if f.init and (f.default is not _NONE or f.default_factory is not _NONE)])
    return None
def _note(spec, frame):
    name, key, params = spec
    seen = _set.setdefault(name, {}).setdefault(key, set())
    if len(seen) == len(params):
        return
    values = frame.f_locals
    for param, default, factory in params:
        if param in seen or param not in values:
            continue
        value = values[param]
        if factory is not _NONE:  # unset = dataclasses' own sentinel
            if value is dataclasses._HAS_DEFAULT_FACTORY or _same(value, factory()):
                continue
        elif _same(value, default):
            continue
        seen.add(param)
def _note_flags(frame, code):
    global _flags
    build = frame.f_globals.get("build_parser")
    if build is None or code.co_argcount != 1:
        return
    if _flags is None:
        _flags = cli_flags(build())
    if code in _flags:
        verb, flags = _flags[code]
        args = frame.f_locals[code.co_varnames[0]]
        seen = _set.setdefault(code.co_filename, {}).setdefault(verb, set())
        seen.update(flag for dest, (flag, default) in flags.items()
                    if not _same(getattr(args, dest, default), default))
def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local
def _trace(frame, event, arg):
    code = frame.f_code
    try:
        spec = _specs[code]
    except KeyError:
        spec = _specs[code] = _spec(frame, code)
    if spec is not None:
        _note(spec, frame)
    if code.co_filename not in _hits:
        if not code.co_filename.startswith("@PKG@"):
            return None
        _hits[code.co_filename] = set()
    _hits[code.co_filename].add(-code.co_firstlineno)
    if code.co_name.startswith("cmd_"):
        _note_flags(frame, code)
    return _local
_dumping = threading.Lock()  # one writer: a late pump snapshot must not replace the final one
_final = threading.Event()
def _dump(final=False):
    with _dumping:
        if _final.is_set():
            return
        with open(f"{_path}.tmp", "w") as fh:
            json.dump({"lines": {f: sorted(v) for f, v in list(_hits.items())},
                       "set": {f: {str(k): sorted(v) for k, v in list(per.items())}
                               for f, per in list(_set.items())}}, fh)
        os.replace(f"{_path}.tmp", _path)
        if final:
            _final.set()
def _pump():
    while not _final.wait(1.0):
        _dump()
threading.Thread(target=_pump, daemon=True).start()
atexit.register(_dump, True)
threading.settrace(_trace)
sys.settrace(_trace)
'''

UNRECOVERABLE = [  # exit 1 by contract (ChaosReport.exit_code); any other status fails, as in CI
    "-m repro chaos --profile degraded-archives --json", "-m repro chaos --profile grid-down --json",
]
CI_SMOKE = [  # .github/workflows/ci.yml `smoke` matrix + the benchmark smoke
    "scripts/scheduler_smoke.py --jobs 48", "scripts/serve_smoke.py --requests 200",
    "scripts/observability_smoke.py --requests 150", "benchmarks/e2e/run.py --smoke",
    "scripts/shard_smoke.py --jobs 20 --users 4 --shards 4", "-m repro chaos --cluster A3526 --json",
    "-m repro chaos --profile worker-crash --json", "-m repro chaos --profile slow-site --json",
    *UNRECOVERABLE,
]
VERBS = [  # one real invocation each, in order (later ones read earlier outputs)
    "clusters", "registry", "campaign", "dressler A2029", "bands A3526", "overlay A3526",
    "analyze A3526 --table --report --trace trace.jsonl --metrics metrics.prom",
    "telemetry report trace.jsonl", "shard map --json",
    "dynamics A3526 --shuffles 50", "explain A3526 A3526-morphology.vot",
]
LIVE = [  # (server verb, clients: a verb given its --url, or "GET /path" as a scraper sends it); SIGTERM stops it
    ("serve-http --observe --journal j.jsonl", ["top --once", "loadgen --scenario steady --requests 8",
                              "loadgen --scenario herd --requests 20",
                              "loadgen --scenario slow --requests 8"]),
    ("serve-fleet --shards 2 --data-dir fleet --observe", ["loadgen --scenario steady --requests 8",
                                                          "top --once", "GET /jobs", "GET /metrics"]),
]
STAGES = {
    "product": [*CI_SMOKE, *(f"-m repro {verb}" for verb in VERBS), *LIVE,  # queue reads what LIVE wrote
                "-m repro queue --journal j.jsonl", "-m repro queue --journal j.jsonl --json",
                "-m repro queue --fleet-dir fleet --json"],
    "record": ["-m pytest benchmarks -q --benchmark-disable -p no:cacheprovider",
               *(f"examples/{p.name}" for p in sorted((ROOT / "examples").glob("*.py"))),
               "benchmarks/gates.py --quick --out {work}"],
    "tests": ["-m pytest -q -p no:cacheprovider"],
}


class Stage:
    """One traced set of commands: their processes dump ``*.reach`` into ``dir``, the verbs' cwd."""

    def __init__(self, tmp: str, name: str, pkg: Path = PKG) -> None:
        self.name, self.dir, self.failed = name, Path(tmp, name), []
        self.dir.mkdir()
        tracer = TRACER.replace("@OUT@", str(self.dir)).replace("@PKG@", str(pkg) + os.sep)
        (self.dir / "sitecustomize.py").write_text(tracer.replace("@CLI_FLAGS@", inspect.getsource(cli_flags)))
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (self.dir, ROOT / "src", ROOT)))}

    def run(self, command: str | tuple[str, list[str]]) -> None:
        if isinstance(command, tuple):
            return self.live(*command)
        cwd = self.dir if command.startswith("-m repro") else ROOT  # verbs write files
        argv = [sys.executable, *shlex.split(command.format(work=self.dir))]
        print(f"  $ python {shlex.join(argv[1:])}", flush=True)
        proc = subprocess.run(argv, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        expected = 1 if command in UNRECOVERABLE else 0
        if proc.returncode and "gates.py" in command:
            print("    (gates.py misses its timing floors under the tracer: exit status ignored)")
        elif proc.returncode != expected:
            self.failed.append(command)
            print(f"    exit {proc.returncode}: {proc.stderr.strip()[-300:]}")

    def live(self, server: str, clients: list[str]) -> None:
        print(f"  $ python -m repro {server} --port 0 &", flush=True)
        argv = [sys.executable, "-m", "repro", *shlex.split(server), "--port", "0"]
        proc = subprocess.Popen(argv, cwd=self.dir, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            url = proc.stdout.readline().split("url=")[1].split()[0]
            for client in clients:
                if client.startswith("GET "):
                    self.get(url + client[4:])
                else:
                    self.run(f"-m repro {client} --url {url}")
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=120)
        self.failed += [server] if proc.returncode else []

    def get(self, url: str) -> None:
        print(f"  $ GET {url}", flush=True)
        try:
            urllib.request.urlopen(url, timeout=120).read()
        except OSError as exc:  # urllib's HTTPError and URLError included
            self.failed.append(f"GET {url}")
            print(f"    {exc}")

    def hits(self) -> tuple[dict[str, set[int]], dict[str, dict[str, set[str]]]]:
        """Merged over the stage's processes: the tracer's ``_hits`` and ``_set``."""
        lines: dict[str, set[int]] = {}
        given: dict[str, dict[str, set[str]]] = {}
        for dump in self.dir.glob("*.reach"):
            data = json.loads(dump.read_text())
            for name, numbers in data["lines"].items():
                lines.setdefault(os.path.realpath(name), set()).update(numbers)
            for name, per in data["set"].items():
                for key, params in per.items():
                    given.setdefault(os.path.realpath(name), {}).setdefault(key, set()).update(params)
        return lines, given


def declared_options(path: Path) -> list[tuple[str, str, str, str]]:
    """``(callable key, callable name, parameter, default source)`` of every defaulted
    parameter and dataclass field one module declares; the key is the tracer's."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                spec = child.args
                positional = [*spec.posonlyargs, *spec.args]
                pairs = list(zip(positional[len(positional) - len(spec.defaults):], spec.defaults))
                pairs += [(a, d) for a, d in zip(spec.kwonlyargs, spec.kw_defaults) if d is not None]
                found.extend((str(first), prefix + child.name, a.arg, ast.unparse(d)) for a, d in pairs)
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                if any("dataclass" in ast.unparse(d) for d in child.decorator_list):
                    for stmt in child.body:
                        if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                                and "ClassVar" not in ast.unparse(stmt.annotation)
                                and "init=False" not in ast.unparse(stmt.value)):
                            found.append((prefix + child.name, prefix + child.name,
                                          stmt.target.id, ast.unparse(stmt.value)))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)  # a def under if/try/with is still the module's

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def stub_lines(tree: ast.Module) -> set[int]:
    """First lines (decorators included, as in ``co_firstlineno``) of one module's declaration
    stubs: a method of a ``Protocol`` class, or an ``@abstractmethod``, whose body is only a
    docstring and/or ``...``."""
    found = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        protocol = any(ast.unparse(base).split("[")[0].endswith("Protocol") for base in cls.bases)
        for fn in cls.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            abstract = any(ast.unparse(d).endswith("abstractmethod") for d in fn.decorator_list)
            empty = all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                        and (stmt.value.value is Ellipsis or isinstance(stmt.value.value, str))
                        for stmt in fn.body)
            if (protocol or abstract) and empty:
                found.add(min([fn.lineno, *(d.lineno for d in fn.decorator_list)]))
    return found


def kept_rules(doc: str, begin: str = KEPT_BEGIN, end: str = KEPT_END) -> list[tuple[str, str]]:
    """``(fnmatch pattern, the rule's bold name)`` of one rule table of the doc: the kept table's
    patterns run over "module:callable.option", the acquitted table's over "module:function"."""
    table = doc.split(begin)[1].split(end)[0]
    rows = [line.strip().strip("|").split("|") for line in table.splitlines() if line.startswith("| `")]
    return [(pattern, rule.split("**")[1]) for patterns, rule in rows
            for pattern in patterns.strip().strip("`").split("` `")]


def ledger(stages: list[Stage], pkg: Path = PKG, parser: argparse.ArgumentParser | None = None,
           kept: list[tuple[str, str]] = (), acquitted: list[tuple[str, str]] = (),
           ) -> tuple[str, list[str], list[str], list[str], list[str]]:
    """The markdown ledger block, and what ``--check`` rejects: the modules, the options, the
    functions, and the rows of the two rule tables that match nothing declared."""
    hits = [stage.hits() for stage in stages]
    shipped = sum(stage.name != "tests" for stage in stages) - 1  # last non-tests stage
    names = [stage.name if i == 0 else f"+{stage.name}" for i, stage in enumerate(stages)]
    rows, cold, unreached, totals = [], [], [], [0] * (2 + len(stages))
    options, unset, counts = [], [], {"function parameters": 0, "dataclass fields": 0}
    uncalled, option_idents, function_idents = [], set(), set()
    env_vars = set()

    def rule_of(ident: str, rules: list[tuple[str, str]]) -> str | None:
        return next((rule for pattern, rule in rules if fnmatch.fnmatchcase(ident, pattern)), None)

    def option(module: str, name: str, param: str, default: str, entered: list[bool], by: list[bool]) -> None:
        """One row of the Options table; an offender when shipped code enters but never sets it."""
        if not any(entered):
            return
        who = next((n.lstrip("+") for n, hit in zip(names, by) if hit), "nobody")
        who = "tests only" if who == "tests" else who
        ident = f"{module}:{name}.{param}"
        rule = rule_of(ident, kept)
        default = default if len(default) <= 40 else default[:37] + "..."
        options.append(f"| `{module}` | `{name}` | `{param}` | `{default}` | {who} | {rule or ''} |")
        if entered[shipped] and not by[shipped] and rule is None:
            unset.append(f"{ident} = {default}")

    for path in sorted(pkg.rglob("*.py")):
        source, key = path.read_text(encoding="utf-8"), os.path.realpath(path)
        executable, functions, todo = set(), [], [compile(source, str(path), "exec")]
        while todo:  # every code object of the module
            co = todo.pop()
            todo += [const for const in co.co_consts if isinstance(const, type(co))]
            executable |= {line for _, _, line in co.co_lines() if line}
            if co.co_flags & 1 and not co.co_name.startswith("<"):  # a def, not a class/lambda
                functions.append((co.co_firstlineno, co.co_qualname.replace(".<locals>", "")))
        seen, given, reached, entered, setby = set(), {}, [], [], []
        for lines, options_set in hits:  # cumulative over the stages
            seen |= lines.get(key, set())
            for callable_key, params in options_set.get(key, {}).items():
                given.setdefault(callable_key, set()).update(params)
            reached.append(len(seen & executable))
            entered.append({-n for n in seen if n < 0})
            setby.append({k: set(v) for k, v in given.items()})
        row = [source.count("\n"), len(executable), *reached]
        totals = [t + r for t, r in zip(totals, row)]
        module = str(path.relative_to(pkg))
        rows.append(f"| `{module}` | " + " | ".join(map(str, row)) + " |")
        missing = [(first, name) for first, name in functions if first not in entered[shipped]]
        stubs = stub_lines(ast.parse(source))
        function_idents.update(f"{module}:{name}" for _, name in functions)
        for first, name in missing:
            who = "tests only" if first in entered[-1] else "nothing"
            rule = "stub" if first in stubs else rule_of(f"{module}:{name}", acquitted)
            cold.append(f"- `{module}` · `{name}` — {who}" + (f" · {rule}" if rule else ""))
            if rule is None:
                uncalled.append(f"{module}:{name}")
        if len(missing) == len(functions) and (functions or not reached[shipped]):
            unreached.append(module)  # no function entered; or no functions and never imported
        for callable_key, name, param, default in declared_options(path):
            option_idents.add(f"{module}:{name}.{param}")
            is_def = callable_key.isdigit()
            counts["function parameters" if is_def else "dataclass fields"] += 1
            option(module, name, param, default,
                   [int(callable_key) in e if is_def else callable_key in s for e, s in zip(entered, setby)],
                   [param in s.get(callable_key, ()) for s in setby])
        env_vars |= set(re.findall(r"""\b(?:environ\.get\(|environ\[|getenv\()\s*["'](\w+)["']""", source))
        if parser is not None and "def build_parser" in source:
            verbs = sorted(cli_flags(parser).items(), key=lambda item: item[1][0])
            for code, (verb, flags) in verbs:
                option_idents.update(f"{module}:{verb}.{flag}" for flag, _ in flags.values())
                for flag, default in flags.values():
                    option(module, verb, flag, repr(default), [code.co_firstlineno in e for e in entered],
                           [flag in s.get(verb, ()) for s in setby])
            counts["CLI flags"] = sum(len(flags) for _, (_, flags) in verbs)
    counts["environment variables"] = len(env_vars)
    share = " · ".join(f"{n} {100 * t / totals[1]:.1f} %" for n, t in zip(names, totals[2:]))
    count = " + ".join(f"{n} {what}" for what, n in counts.items())
    block = [
        f"Executable lines reached, cumulative: {share}.", "",
        "| " + " | ".join(["module", "lines", "executable", *names]) + " |",
        "|" + "---|" * (3 + len(names)), *rows,
        "| **total** | " + " | ".join(f"**{t}**" for t in totals) + " |", "",
        f"### Functions no product or record path enters ({len(cold)})", "",
        f"Each with who else enters it, then `stub` or the acquitted rule that keeps it;"
        f" {len(uncalled)} are neither.", "", *cold, "",
        "### Options", "",
        f"Independently settable values declared in `src/repro`: {count} = **{sum(counts.values())}**"
        f" ({', '.join(sorted(env_vars))}).  Below, the {len(options)} of them whose callable some stage"
        f" enters, with the first stage that gives each a value other than its default;"
        f" {len(unset)} are entered by a product or record path, set by neither and not kept by a rule.", "",
        "| module | callable | option | default | first set by | kept by rule |", "|---|---|---|---|---|---|",
        *options,
    ]
    stale = [f"{pattern} (kept)" for pattern, _ in kept
             if not any(fnmatch.fnmatchcase(ident, pattern) for ident in option_idents)]
    stale += [f"{pattern} (acquitted)" for pattern, _ in acquitted
              if not any(fnmatch.fnmatchcase(ident, pattern) for ident in function_idents)]
    return "\n".join(block), unreached, unset, uncalled, stale


def main() -> int | str:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true", help="add the paper record, gates and examples")
    parser.add_argument("--tests", action="store_true", help="add the tier-1 suite")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on a module or a function they never enter, or an option they never set")
    args = parser.parse_args()
    wanted = {"product": True, "record": args.record or args.check, "tests": args.tests}
    sys.path.insert(0, str(ROOT / "src"))
    from repro.cli import build_parser

    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        stages = [Stage(tmp, name) for name in STAGES if wanted[name]]
        for stage in stages:
            for command in STAGES[stage.name]:
                stage.run(command)
        doc = DOC.read_text(encoding="utf-8")
        block, unreached, unset, uncalled, stale = ledger(
            stages, parser=build_parser(), kept=kept_rules(doc),
            acquitted=kept_rules(doc, ACQUITTED_BEGIN, ACQUITTED_END))
    print(block.split("\n", 1)[0])
    print(f"traced in {time.monotonic() - started:.0f} s")
    if len(stages) == 3:
        head, rest = doc.split(BEGIN)
        DOC.write_text(f"{head}{BEGIN}\n{block}\n{END}{rest.split(END)[1]}", encoding="utf-8")
    problems = [f"FAILED under trace: {c}" for stage in stages for c in stage.failed]
    if args.check:
        problems += [f"UNREACHED by product/record: {m}" for m in unreached]
        problems += [f"UNSET by product/record, on no kept-on-purpose row (fold it to a constant, or name "
                     f"the rule of docs/reachability.md it is kept by): {o}" for o in unset]
        problems += [f"UNCALLED by product/record, no stub, on no acquitted row (delete it with its tests, "
                     f"reach it from a product path, or name the rule of docs/reachability.md that acquits "
                     f"it): {f}" for f in uncalled]
        problems += [f"STALE row of docs/reachability.md, its pattern matches nothing declared (delete the "
                     f"pattern): {p}" for p in stale]
    return "\n".join(problems) or 0  # sys.exit prints a message and exits 1


if __name__ == "__main__":
    sys.exit(main())
