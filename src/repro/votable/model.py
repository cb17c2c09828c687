"""In-memory VOTable model: typed fields and row storage.

Values are stored row-major as Python scalars (``float``, ``int``, ``bool``,
``str`` or ``None`` for nulls); columns are extractable as numpy arrays for
vectorised work.  The supported VOTable datatypes are the ones astronomical
services actually emit: ``boolean``, ``short``/``int``/``long``,
``float``/``double`` and variable-length ``char``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

#: datatype name -> (python caster, numpy dtype for column extraction)
DATATYPES: dict[str, tuple[Callable[[Any], Any], Any]] = {
    "boolean": (lambda v: bool(v), np.bool_),
    "short": (lambda v: int(v), np.int16),
    "int": (lambda v: int(v), np.int32),
    "long": (lambda v: int(v), np.int64),
    "float": (lambda v: float(v), np.float32),
    "double": (lambda v: float(v), np.float64),
    "char": (lambda v: str(v), object),
}


@dataclass(frozen=True)
class Field:
    """A VOTable FIELD declaration.

    ``ucd`` (Unified Content Descriptor) carries the astronomical semantics
    of the column — e.g. ``pos.eq.ra`` — and is what NVO tools key on.
    """

    name: str
    datatype: str
    unit: str = ""
    ucd: str = ""
    description: str = ""
    arraysize: str | None = None

    def __post_init__(self) -> None:
        if self.datatype not in DATATYPES:
            raise ValueError(
                f"unsupported VOTable datatype {self.datatype!r}; "
                f"expected one of {sorted(DATATYPES)}"
            )
        if not self.name:
            raise ValueError("FIELD requires a non-empty name")
        if self.datatype == "char" and self.arraysize is None:
            # char fields are variable-length strings by default; normalising
            # here keeps serialise/parse round-trips structurally equal.
            object.__setattr__(self, "arraysize", "*")

    def cast(self, value: Any) -> Any:
        """Coerce ``value`` to this field's python type (``None`` passes)."""
        if value is None:
            return None
        return DATATYPES[self.datatype][0](value)


class VOTable:
    """A single-TABLE VOTable document.

    The prototype only ever ships one TABLE per document, so the model
    collapses RESOURCE/TABLE into one object with ``name``/``description``
    metadata and PARAM key-values.
    """

    def __init__(
        self,
        fields: Sequence[Field],
        name: str = "",
        description: str = "",
        params: dict[str, str] | None = None,
    ) -> None:
        names = [f.name for f in fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate field names: {names}")
        self.fields: tuple[Field, ...] = tuple(fields)
        self.name = name
        self.description = description
        self.params: dict[str, str] = dict(params or {})
        self._rows: list[tuple[Any, ...]] = []
        self._index: dict[str, int] = {f.name: i for i, f in enumerate(self.fields)}

    # -- construction --------------------------------------------------------
    def append(self, row: Sequence[Any] | dict[str, Any]) -> None:
        """Append one row, given positionally or by field name.

        Values are cast to the declared field types; missing dict keys
        become nulls.
        """
        if isinstance(row, dict):
            unknown = set(row) - set(self._index)
            if unknown:
                raise KeyError(f"row has unknown fields: {sorted(unknown)}")
            values: Iterable[Any] = (row.get(f.name) for f in self.fields)
        else:
            if len(row) != len(self.fields):
                raise ValueError(
                    f"row has {len(row)} values, table has {len(self.fields)} fields"
                )
            values = row
        self._rows.append(tuple(f.cast(v) for f, v in zip(self.fields, values)))

    # -- access ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        for row in self._rows:
            yield {f.name: v for f, v in zip(self.fields, row)}

    def rows(self) -> list[tuple[Any, ...]]:
        """Raw row tuples (shared list copy; tuples are immutable)."""
        return list(self._rows)

    def row(self, i: int) -> dict[str, Any]:
        return {f.name: v for f, v in zip(self.fields, self._rows[i])}

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def column(self, name: str) -> np.ndarray:
        """Extract a column as a numpy array (floats get NaN for nulls)."""
        idx = self._index[name]
        f = self.fields[idx]
        dtype = DATATYPES[f.datatype][1]
        raw = [r[idx] for r in self._rows]
        if f.datatype in ("float", "double"):
            return np.array([np.nan if v is None else v for v in raw], dtype=dtype)
        if any(v is None for v in raw):
            raise ValueError(
                f"column {name!r} has nulls and dtype {f.datatype}; "
                "use rows()/iteration for null-aware access"
            )
        return np.array(raw, dtype=dtype)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VOTable)
            and self.fields == other.fields
            and self._rows == other._rows
            and self.params == other.params
            and self.name == other.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VOTable(name={self.name!r}, fields={len(self.fields)}, rows={len(self)})"
