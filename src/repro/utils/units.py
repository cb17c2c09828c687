"""Byte units plus human-readable formatting.

The §5 campaign report is expressed in files, jobs, and megabytes; these
helpers keep the arithmetic honest (binary prefixes, as the 2003 paper's
"30MB of data" would have been measured).
"""

from __future__ import annotations

KB: int = 1024
MB: int = 1024 * KB
GB: int = 1024 * MB


def format_bytes(n: float) -> str:
    """Render a byte count with a binary prefix: ``format_bytes(31457280)
    == '30.0 MB'``."""
    n = float(n)
    for unit, factor in (("GB", GB), ("MB", MB), ("KB", KB)):
        if abs(n) >= factor:
            return f"{n / factor:.1f} {unit}"
    return f"{n:.0f} B"
