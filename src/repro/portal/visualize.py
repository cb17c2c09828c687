"""ASCII visualisation: the Figure 7 overlay and supporting plots.

Figure 7 shows the Aladin viewer with "x-ray emission ... in blue, and the
optical mission ... in red.  The colored dots are located at the positions
of the galaxies ... the dot color represents the value of the asymmetry
index."  :func:`ascii_overlay` renders the same content in a terminal: the
beta-model X-ray surface brightness as background shading, galaxies as
characters graded by asymmetry.
"""

from __future__ import annotations

import numpy as np

from repro.sky.cluster import ClusterModel
from repro.sky.xray import beta_model
from repro.votable.model import VOTable

#: Background shades, faint -> bright X-ray emission.
_XRAY_SHADES = " .:-="
#: Galaxy markers, symmetric (elliptical) -> asymmetric (spiral).
_GALAXY_MARKS = "EeoxS"


def ascii_overlay(merged: VOTable, cluster: ClusterModel) -> str:
    """Render the Figure 7 overlay: X-ray map + asymmetry-graded galaxies.

    ``merged`` needs ``ra``/``dec``/``valid``/``asymmetry`` columns.  The
    legend explains the grading; `E` marks the most symmetric third,
    `S` the most asymmetric.
    """
    width, height = 64, 28
    field = 2.2 * cluster.tidal_radius_deg
    # Background: beta-model X-ray brightness sampled on the character grid.
    xs = np.linspace(-field / 2, field / 2, width)
    ys = np.linspace(-field / 2, field / 2, height)
    xx, yy = np.meshgrid(xs, ys)
    r = np.hypot(xx, yy)
    brightness = beta_model(r, 1.0, cluster.core_radius_deg * 1.5)
    levels = np.clip(
        (np.log1p(brightness / brightness.min()) / np.log1p(1.0 / brightness.min()))
        * (len(_XRAY_SHADES) - 1),
        0,
        len(_XRAY_SHADES) - 1,
    ).astype(int)
    grid = [[_XRAY_SHADES[levels[j, i]] for i in range(width)] for j in range(height)]

    rows = [r for r in merged if r["valid"] and r["asymmetry"] is not None]
    if rows:
        asym = np.array([r["asymmetry"] for r in rows])
        lo, hi = float(asym.min()), float(np.percentile(asym, 95))
        span = max(hi - lo, 1e-9)
        cosd = np.cos(np.deg2rad(cluster.center.dec))
        for row, a in zip(rows, asym):
            dx = ((row["ra"] - cluster.center.ra + 180.0) % 360.0 - 180.0) * cosd
            dy = row["dec"] - cluster.center.dec
            i = int(round((dx + field / 2) / field * (width - 1)))
            j = int(round((dy + field / 2) / field * (height - 1)))
            if 0 <= i < width and 0 <= j < height:
                grade = int(np.clip((a - lo) / span * (len(_GALAXY_MARKS) - 1), 0, len(_GALAXY_MARKS) - 1))
                grid[j][i] = _GALAXY_MARKS[grade]

    lines = ["".join(line) for line in reversed(grid)]  # north up
    lines.append("")
    lines.append(
        f"cluster {cluster.name}: background = x-ray surface brightness; "
        f"marks E (symmetric) .. S (asymmetric)"
    )
    return "\n".join(lines)


def ascii_scatter(
    x: np.ndarray,
    y: np.ndarray,
    xlabel: str = "x",
    ylabel: str = "y",
) -> str:
    """A terminal scatter plot (the Mirage scatter-plot stand-in)."""
    width, height = 56, 18
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size == 0 or x.size != y.size:
        raise ValueError("scatter needs equal-length, non-empty arrays")
    grid = [[" " for _ in range(width)] for _ in range(height)]
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)
    for xi, yi in zip(x, y):
        i = int((xi - x_lo) / x_span * (width - 1))
        j = int((yi - y_lo) / y_span * (height - 1))
        cell = grid[height - 1 - j][i]
        grid[height - 1 - j][i] = "*" if cell == " " else "#"
    lines = ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f"x: {xlabel} [{x_lo:.3g}, {x_hi:.3g}]   y: {ylabel} [{y_lo:.3g}, {y_hi:.3g}]")
    return "\n".join(lines)


def ascii_histogram(values: np.ndarray, bins: int = 10, label: str = "") -> str:
    """A horizontal terminal histogram."""
    width = 40
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("histogram needs at least one value")
    counts, edges = np.histogram(values, bins=bins)
    peak = max(int(counts.max()), 1)
    lines = [f"histogram{': ' + label if label else ''} (n={values.size})"]
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{lo:9.3g} - {hi:9.3g} |{bar:<{width}s}| {count}")
    return "\n".join(lines)
