"""The served import graph: a server imports only what a served job runs.

Nearly all of a server's start-up is importing modules, paid again by every
spawned shard worker and every restart.  These checks run in a fresh
interpreter, so nothing an earlier test imported can hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Never on the served path: analysis-only scipy and modules, and the client.
NOT_SERVED = (
    "scipy.stats",
    "scipy.integrate",
    "scipy.spatial",
    "repro.portal.analysis",
    "repro.portal.dynamics",
    "repro.portal.overlay",
    "repro.portal.visualize",
    "repro.portal.campaign",
    "repro.serve.loadgen",
)


def _loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_serving_stack_imports_no_analysis():
    code = "from repro.serve.harness import build_serving_stack\nbuild_serving_stack(runner='portal')"
    assert _loaded_after(code, NOT_SERVED) == []


def test_cli_import_loads_no_numpy():
    # ``repro --help`` parses arguments only; each verb imports its own work
    assert _loaded_after("import repro.cli", ("numpy",)) == []
