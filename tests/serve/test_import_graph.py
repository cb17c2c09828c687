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

#: Never on the served path: scipy (numpy twins stand in for the three
#: calls a job makes), analysis-only modules, and the client.
NOT_SERVED = (
    "scipy",
    "numpy.f2py",
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


def test_a_served_job_imports_no_scipy():
    # a job renders cutouts (Gaussian seeing, Sersic Gamma) and segments
    # them: none of it may pull scipy in on first use
    code = """
from repro.catalog.coords import SkyPosition
from repro.scheduler.job import JobState
from repro.serve.harness import build_serving_stack
from repro.sky.cluster import ClusterModel
model = ClusterModel(name="PROBE", center=SkyPosition(150.0, 2.0), redshift=0.05,
                     n_galaxies=12, core_radius_deg=0.04, seed=7, context_image_count=4)
with build_serving_stack(clusters=[model]).manager as manager:
    record = manager.wait(manager.submit("probe", "PROBE").job_id, timeout=60)
assert record.state is JobState.COMPLETED, record.error
"""
    assert _loaded_after(code, ("scipy", "numpy.f2py")) == []


def test_cli_import_loads_no_numpy():
    # ``repro --help`` parses arguments only; each verb imports its own work
    assert _loaded_after("import repro.cli", ("numpy",)) == []
