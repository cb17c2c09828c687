"""End-to-end benchmark of the real serving path (see README.md).

Importing the package prepares the process to measure: the repository's
``src/`` goes on ``sys.path`` (the benchmark runs from a bare checkout) and
BLAS is held to one thread, here and in every child, before numpy loads.
"""

import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if not (REPO_ROOT / "src" / "repro").is_dir():
    raise ImportError(
        f"{REPO_ROOT}/src/repro not found: the benchmark measures the repository's "
        "program and cannot run without it"
    )
_SRC = str(REPO_ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

#: One BLAS thread per process: on two cores, BLAS worker threads fight the
#: executor's own thread pool and widen the run-to-run spread severalfold.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
