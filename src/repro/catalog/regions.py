"""DS9/Aladin region files: the catalog-overlay interchange format.

Figure 7's "colored dots ... at the positions of the galaxies within the
cluster; the dot color represents the value of the asymmetry index" is, in
practice, a region layer loaded over the imagery.  This module writes the
ubiquitous DS9 ``.reg`` dialect so the reproduction's catalogs drop
straight into real astronomy viewers.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Colour ramp from symmetric (orange, elliptical) to asymmetric (blue,
#: spiral) — the Figure 7 palette.
FIG7_COLORS = ("orange", "yellow", "green", "cyan", "blue")


@dataclass(frozen=True)
class CircleRegion:
    """One circular region in FK5 sky coordinates."""

    ra: float
    dec: float
    radius_arcsec: float
    color: str = "green"
    label: str = ""

    def to_line(self) -> str:
        attrs = [f"color={self.color}"]
        if self.label:
            attrs.append(f"text={{{self.label}}}")
        return f'circle({self.ra:.6f},{self.dec:.6f},{self.radius_arcsec:.2f}") # ' + " ".join(attrs)


def color_for_value(value: float, lo: float, hi: float) -> str:
    """Map a value onto the Figure 7 palette (clipped linear ramp)."""
    palette = FIG7_COLORS
    if hi <= lo:
        return palette[0]
    t = min(max((value - lo) / (hi - lo), 0.0), 1.0)
    return palette[min(int(t * len(palette)), len(palette) - 1)]


def write_region_file(regions: list[CircleRegion], comment: str = "") -> str:
    """Serialise regions in the DS9 v4.1 format (fk5 frame)."""
    lines = ["# Region file format: DS9 version 4.1"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(
        'global color=green dashlist=8 3 width=1 font="helvetica 10 normal roman" '
        "select=1 highlite=1 dash=0 fixed=0 edit=1 move=1 delete=1 include=1 source=1"
    )
    lines.append("fk5")
    lines.extend(region.to_line() for region in regions)
    return "\n".join(lines) + "\n"


def catalog_to_regions(merged) -> list[CircleRegion]:
    """Figure 7's dot layer from a merged portal catalog.

    Valid rows become circles coloured by asymmetry on the orange-to-blue
    ramp; invalid rows become small red crosses' stand-ins (red circles
    labelled ``invalid``).
    """
    radius_arcsec, value_column = 4.0, "asymmetry"
    rows = list(merged)
    values = [r[value_column] for r in rows if r.get("valid") and r.get(value_column) is not None]
    lo = min(values) if values else 0.0
    hi = max(values) if values else 1.0
    regions: list[CircleRegion] = []
    for row in rows:
        if row.get("valid") and row.get(value_column) is not None:
            regions.append(
                CircleRegion(
                    ra=row["ra"],
                    dec=row["dec"],
                    radius_arcsec=radius_arcsec,
                    color=color_for_value(row[value_column], lo, hi),
                    label=row.get("id", ""),
                )
            )
        else:
            regions.append(
                CircleRegion(
                    ra=row["ra"],
                    dec=row["dec"],
                    radius_arcsec=radius_arcsec / 2,
                    color="red",
                    label=f"{row.get('id', '')} invalid",
                )
            )
    return regions
