"""The package reads exactly one environment variable: ``REPRO_TELEMETRY``.

An environment variable is a knob no constructor signature or ``--help``
shows; a new one must be added here (and to the docs) on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_ENV_ACCESS = re.compile(r"\b(?:environ|getenv)\b")
_ENV_NAME = re.compile(r"""\b(?:environ\.get\(|environ\[|getenv\()\s*["']([A-Za-z0-9_]+)["']""")


def test_only_repro_telemetry_is_read():
    reads: list[tuple[str, str]] = []
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if not _ENV_ACCESS.search(line):
                continue
            names = _ENV_NAME.findall(line)
            assert names, f"{path}: environment access without a literal name: {line.strip()}"
            reads += [(str(path.relative_to(SRC)), name) for name in names]
    assert reads == [("repro/telemetry/__init__.py", "REPRO_TELEMETRY")]
