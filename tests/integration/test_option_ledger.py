"""The option recorder of ``scripts/reachability.py``, on a tiny traced package.

The ledger's "first set by" column has to mean what ``docs/reachability.md``
says: *set* = some call gave the parameter a value different from its declared
default, however the value got there.  Its function list has to flag exactly the
functions no shipped stage enters that are neither a declaration stub nor on an
acquitted row, and a rule row that matches nothing declared is stale.
"""

from __future__ import annotations

import importlib.util
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

TINY = '''
import argparse
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Protocol

def positional(x, scale=1.0):
    return x * scale

def keyword(x, *, offset=0):
    return x + offset

def relay(**kwargs):
    return landed(**kwargs)

def landed(x, depth=3, untouched="same"):
    return x, depth, untouched

def explicit_default(x, limit=10):
    return min(x, limit)

def test_only(x, knob=False):
    return x if knob else -x

def never_called(x, ghost=None):
    return x

def tests_only_helper():
    return 1

def failover_branch():
    return 2

class Renderer(ABC):
    @abstractmethod
    def render(self):
        """Draw one frame."""

class Speaker(Protocol):
    def speak(self) -> str:
        ...

@dataclass
class Config:
    name: str
    tags: list = field(default_factory=list)
    retries: int = 3

def cmd_run(args):
    return 0

def build_parser():
    parser = argparse.ArgumentParser(prog="tiny")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--level", type=int, default=2)
    p.set_defaults(fn=cmd_run)
    return parser
'''

PRODUCT = '''
import sys; sys.path.insert(0, {root!r})
from tiny import mod
mod.positional(2, 3.0)
mod.keyword(2, offset=5)
mod.relay(x=1, depth=9)
mod.explicit_default(4, limit=10)
mod.explicit_default(4, 10)
mod.test_only(1)
mod.Config("a", retries=3)
mod.Config("b", tags=[])
args = mod.build_parser().parse_args(["run", "--level", "7"])
args.fn(args)
'''

TESTS = '''
import sys; sys.path.insert(0, {root!r})
from tiny import mod
mod.test_only(1, knob=True)
mod.Config("c", tags=["x"])
mod.tests_only_helper()
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "scripts" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_option_recorder_columns(reach, tmp_path):
    pkg = tmp_path / "tiny"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(TINY)
    stages = []
    for name, script in (("product", PRODUCT), ("tests", TESTS)):
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(script).format(root=str(tmp_path)))
        stage = reach.Stage(str(tmp_path), name, pkg=pkg)
        stage.run(str(path))
        assert not stage.failed
        stages.append(stage)
    spec = importlib.util.spec_from_file_location("tiny_mod", pkg / "mod.py")
    tiny = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiny)
    kept = [("mod.py:landed.untouched", "a rule"), ("mod.py:landed.gone", "stale")]
    acquitted = [("mod.py:failover_*", "error branch"), ("mod.py:retired_*", "stale")]
    block, _, unset, uncalled, stale = reach.ledger(
        stages, pkg=pkg, parser=tiny.build_parser(), kept=kept, acquitted=acquitted)
    rows = {}
    for line in block.split("### Options")[1].splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        if len(cells) == 6 and cells[0] == "mod.py":
            rows[(cells[1], cells[2])] = (cells[4], cells[5])

    assert rows[("positional", "scale")] == ("product", "")  # set positionally
    assert rows[("keyword", "offset")] == ("product", "")  # set by keyword
    assert rows[("landed", "depth")] == ("product", "")  # through the **kwargs relay
    assert rows[("landed", "untouched")] == ("nobody", "a rule")
    assert rows[("explicit_default", "limit")] == ("nobody", "")  # passed, but equal to the default
    assert rows[("test_only", "knob")] == ("tests only", "")
    assert rows[("Config", "retries")] == ("nobody", "")  # explicit 3 == default 3
    assert rows[("Config", "tags")] == ("tests only", "")  # [] == default_factory()
    assert rows[("run", "--level")] == ("product", "")
    assert rows[("run", "--fast")] == ("nobody", "")
    assert ("never_called", "ghost") not in rows  # judged by the function list, not here
    # --check's offenders: entered by the shipped stage, set by it never, kept by no rule
    assert sorted(o.split(" = ")[0] for o in unset) == [
        "mod.py:Config.retries", "mod.py:Config.tags", "mod.py:explicit_default.limit",
        "mod.py:run.--fast", "mod.py:test_only.knob",
    ]
    assert "7 function parameters + 2 dataclass fields + 2 CLI flags + 0 environment variables" in block
    # the function check: stubs and acquitted functions are listed with their rule, not rejected
    assert sorted(uncalled) == ["mod.py:never_called", "mod.py:tests_only_helper"]
    cold = block.split("### Functions")[1].split("### Options")[0]
    assert "- `mod.py` · `tests_only_helper` — tests only\n" in cold
    assert "- `mod.py` · `never_called` — nothing\n" in cold
    assert "- `mod.py` · `failover_branch` — nothing · error branch\n" in cold
    assert "- `mod.py` · `Renderer.render` — nothing · stub\n" in cold
    assert "- `mod.py` · `Speaker.speak` — nothing · stub\n" in cold
    # a rule row that matches no declared option or function rots: --check names it
    assert stale == ["mod.py:landed.gone (kept)", "mod.py:retired_* (acquitted)"]


def test_ci_smoke_is_what_the_workflow_runs(reach):
    """The traced product stage replays CI's ``smoke`` matrix: each python command of it, a
    shell ``for`` loop expanded, plus the benchmark smoke.  Read as text: CI installs no YAML parser."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    smoke = workflow.split("\n  smoke:\n")[1].split("\n  gates:\n")[0]
    loops = dict(re.findall(r"for (\w+) in ([^;]+); do", smoke))
    commands = {"benchmarks/e2e/run.py --smoke"}
    for line in re.findall(r"\bpython3? (.+)", smoke):
        command = re.split(r"\s*(?:\||>)", line)[0].strip()
        if command.startswith("-m pip"):
            continue
        variants = [command]
        for name in re.findall(r'"\$(\w+)"', command):
            variants = [v.replace(f'"${name}"', value) for v in variants for value in loops[name].split()]
        commands.update(variants)
    assert "-m repro chaos --profile grid-down --json" in commands  # the loop was expanded
    assert sorted(reach.CI_SMOKE) == sorted(commands)


def test_cli_defaults_are_the_constants_their_callees_declare():
    """A relayed setting has one declared default: the flag's ``default=`` is
    the constant's *name* (checked in the source: small ints are interned, so
    identity cannot tell a copied literal at run time), and the callee's own
    signature default is that same object."""
    import ast
    import inspect

    import repro
    from repro import cli
    from repro.scheduler.service import WorkloadManager
    from repro.serve.harness import _assemble, build_fleet_serving_stack, build_serving_stack
    from repro.serve.observability import ObservabilityPlane
    from repro.shard.fleet import ShardFleet
    from repro.shard.worker import WorkerConfig
    from repro.telemetry import slo

    def declared(fn, name):
        return inspect.signature(fn).parameters[name].default

    worker = {f.name: f.default for f in WorkerConfig.__dataclass_fields__.values()}
    relayed = {  # (verb, flag) -> (constant's name, its home, the callee defaults that must be it)
        ("serve-http", "--max-workers"): (
            "MAX_WORKERS", repro,
            [declared(build_serving_stack, "max_workers"), declared(WorkloadManager, "max_workers")],
        ),
        ("serve-http", "--latency-target"): (
            "LATENCY_TARGET_S", slo,
            [declared(ObservabilityPlane, "latency_target_s"), declared(_assemble, "latency_target_s")],
        ),
        ("serve-fleet", "--shards"): (
            "SHARDS", repro, [declared(build_fleet_serving_stack, "shards"), declared(ShardFleet, "shards")],
        ),
        ("serve-fleet", "--max-workers"): ("SHARD_MAX_WORKERS", repro, [worker["max_workers"]]),
        ("shard map", "--shards"): ("SHARDS", repro, [declared(ShardFleet, "shards")]),
    }
    parsed = {verb: flags for verb, flags in reach_flags(cli.build_parser()).values()}
    spelled = {}  # flag -> every default= expression build_parser's source gives it
    for call in ast.walk(ast.parse(inspect.getsource(cli.build_parser))):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "add_argument":
            for keyword in call.keywords:
                if keyword.arg == "default" and call.args:
                    spelled.setdefault(call.args[-1].value, set()).add(ast.unparse(keyword.value))
    for (verb, flag), (name, home, callee_defaults) in relayed.items():
        constant = getattr(home, name)
        assert getattr(cli, name) is constant  # cli imports the name, it does not re-declare it
        assert dict(parsed[verb].values())[flag] is constant, (verb, flag)
        assert all(default is constant for default in callee_defaults), (verb, flag)
    for flag in {flag for _, flag in relayed}:
        assert all(not text[0].isdigit() and not text.startswith(("'", '"')) for text in spelled[flag]), (
            f"{flag}: a default= in build_parser is a literal, not a constant's name: {spelled[flag]}"
        )


def reach_flags(parser):
    spec = importlib.util.spec_from_file_location("reachability", ROOT / "scripts" / "reachability.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.cli_flags(parser)
