"""General-purpose VOTable manipulations.

§4.2 of the paper: "Joining is one of a few general-purpose VOTable
manipulations that should be implemented as a generic, external service ...
In lieu of such a service, our portal combines data from different VOTables
in a simple way using a local software library it calls internally."  This
module *is* that library: the keyed join and the column addition the
portal's merge step uses.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.votable.model import Field, VOTable


def _merged_fields(left: VOTable, right: VOTable, on: str) -> list[Field]:
    fields = list(left.fields)
    left_names = set(left.field_names())
    for f in right.fields:
        if f.name == on:
            continue
        if f.name in left_names:
            fields.append(Field(f.name + "_2", f.datatype, f.unit, f.ucd, f.description, f.arraysize))
        else:
            fields.append(f)
    return fields


def inner_join(left: VOTable, right: VOTable, on: str) -> VOTable:
    """Join two tables on equality of column ``on``; keep matching rows only.

    Name collisions from the right table are suffixed ``_2``.  When a key occurs
    multiple times on either side the join is a full cross-product for that
    key, matching SQL semantics.
    """
    if on not in left.field_names():
        raise KeyError(f"join column {on!r} missing from left table")
    if on not in right.field_names():
        raise KeyError(f"join column {on!r} missing from right table")
    fields = _merged_fields(left, right, on)
    out = VOTable(fields, name=left.name, description=left.description, params={**right.params, **left.params})

    right_on_idx = right.field_names().index(on)
    buckets: dict[Any, list[tuple[Any, ...]]] = {}
    for row in right.rows():
        buckets.setdefault(row[right_on_idx], []).append(row)

    left_on_idx = left.field_names().index(on)
    for lrow in left.rows():
        for rrow in buckets.get(lrow[left_on_idx], ()):
            extra = tuple(v for i, v in enumerate(rrow) if i != right_on_idx)
            out.append(lrow + extra)
    return out


def add_column(table: VOTable, field: Field, values: Sequence[Any]) -> VOTable:
    """Return a new table with ``field`` appended, populated from ``values``."""
    if len(values) != len(table):
        raise ValueError(f"got {len(values)} values for {len(table)} rows")
    out = VOTable(
        list(table.fields) + [field],
        name=table.name,
        description=table.description,
        params=dict(table.params),
    )
    for raw, value in zip(table.rows(), values):
        out.append(raw + (field.cast(value),))
    return out
