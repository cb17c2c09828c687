"""FITS binary tables (XTENSION = BINTABLE): catalogs in FITS.

Astronomical catalogs travelled (and still travel) as FITS binary-table
extensions at least as often as VOTables; §3.1 names FITS as the standard
"for exchanging astronomical images *and tables*".  This module implements
the BINTABLE subset those catalogs use:

* column types ``L`` (logical), ``J``/``K`` (32/64-bit integers),
  ``E``/``D`` (32/64-bit IEEE floats), ``nA`` (fixed-width strings);
* the mandatory structural header (XTENSION, BITPIX=8, NAXIS=2, NAXIS1 =
  bytes/row, NAXIS2 = rows, PCOUNT/GCOUNT, TFIELDS, TTYPEn/TFORMn);
* big-endian, row-major packing padded to 2880-byte blocks;
* lossless conversion to and from :class:`repro.votable.model.VOTable`
  (strings are space-padded to the column width; float NaN carries nulls).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.fits.header import BLOCK_SIZE, Header
from repro.votable.model import Field, VOTable

#: TFORM letter -> (numpy dtype, VOTable datatype)
_SCALAR_FORMS = {
    "L": (np.dtype(">u1"), "boolean"),
    "J": (np.dtype(">i4"), "int"),
    "K": (np.dtype(">i8"), "long"),
    "E": (np.dtype(">f4"), "float"),
    "D": (np.dtype(">f8"), "double"),
}
_TFORM_RE = re.compile(r"^(\d*)([LJKEDA])$")

#: VOTable datatype -> TFORM letter (char handled separately)
_VOTABLE_TO_TFORM = {
    "boolean": "L",
    "short": "J",  # widened: BINTABLE 'I' not implemented
    "int": "J",
    "long": "K",
    "float": "E",
    "double": "D",
}


@dataclass(frozen=True)
class BinTableColumn:
    """One column: name + TFORM code (e.g. ``D``, ``16A``)."""

    name: str
    tform: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("column requires a name")
        m = _TFORM_RE.match(self.tform)
        if not m:
            raise ValueError(f"unsupported TFORM {self.tform!r}")
        repeat, letter = m.groups()
        if letter == "A":
            if not repeat:
                raise ValueError("string columns need an explicit width, e.g. '16A'")
        elif repeat not in ("", "1"):
            raise ValueError(f"array columns not supported: {self.tform!r}")

    @property
    def letter(self) -> str:
        return _TFORM_RE.match(self.tform).group(2)  # type: ignore[union-attr]

    @property
    def width_bytes(self) -> int:
        m = _TFORM_RE.match(self.tform)
        repeat, letter = m.groups()  # type: ignore[union-attr]
        if letter == "A":
            return int(repeat)
        return _SCALAR_FORMS[letter][0].itemsize


class BinTableHDU:
    """A BINTABLE extension HDU."""

    def __init__(self, columns: list[BinTableColumn], header: Header | None = None) -> None:
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        if not columns:
            raise ValueError("a binary table needs at least one column")
        self.columns = list(columns)
        self.header = header if header is not None else Header()
        self._rows: list[tuple] = []

    def append(self, row: tuple | list) -> None:
        if len(row) != len(self.columns):
            raise ValueError(f"row has {len(row)} cells, table has {len(self.columns)} columns")
        self._rows.append(tuple(row))

    def rows(self) -> list[tuple]:
        return list(self._rows)

    @property
    def row_bytes(self) -> int:
        return sum(c.width_bytes for c in self.columns)

    # -- serialisation ---------------------------------------------------------
    def _structural_header(self) -> Header:
        hdr = Header()
        hdr.set("XTENSION", "BINTABLE", "binary table extension")
        hdr.set("BITPIX", 8)
        hdr.set("NAXIS", 2)
        hdr.set("NAXIS1", self.row_bytes, "bytes per row")
        hdr.set("NAXIS2", len(self._rows), "number of rows")
        hdr.set("PCOUNT", 0)
        hdr.set("GCOUNT", 1)
        hdr.set("TFIELDS", len(self.columns))
        for i, column in enumerate(self.columns, start=1):
            hdr.set(f"TTYPE{i}", column.name)
            hdr.set(f"TFORM{i}", column.tform)
        structural = {"XTENSION", "BITPIX", "NAXIS", "NAXIS1", "NAXIS2", "PCOUNT", "GCOUNT", "TFIELDS"}
        for card in self.header:
            if card.is_commentary or card.keyword in structural:
                continue
            if re.match(r"^(TTYPE|TFORM)\d+$", card.keyword):
                continue
            hdr.set(card.keyword, card.value, card.comment)
        return hdr

    def _encode_cell(self, value, column: BinTableColumn) -> bytes:
        letter = column.letter
        if letter == "A":
            text = "" if value is None else str(value)
            data = text.encode("ascii", errors="replace")[: column.width_bytes]
            return data.ljust(column.width_bytes, b" ")
        dtype, _ = _SCALAR_FORMS[letter]
        if letter == "L":
            return b"\x00" if value is None else (b"T" if value else b"F")
        if letter in ("E", "D"):
            return np.asarray(np.nan if value is None else value, dtype=dtype).tobytes()
        if value is None:
            raise ValueError(f"integer column {column.name!r} cannot hold nulls in BINTABLE")
        return np.asarray(value, dtype=dtype).tobytes()

    def to_bytes(self) -> bytes:
        out = bytearray(self._structural_header().to_bytes())
        for row in self._rows:
            for value, column in zip(row, self.columns):
                out += self._encode_cell(value, column)
        out += b"\x00" * ((-len(self._rows) * self.row_bytes) % BLOCK_SIZE)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["BinTableHDU", int]:
        header, offset = Header.from_bytes(data)
        if header.get("XTENSION") != "BINTABLE":
            raise ValueError("not a BINTABLE extension")
        n_fields = int(header["TFIELDS"])  # type: ignore[arg-type]
        n_rows = int(header["NAXIS2"])  # type: ignore[arg-type]
        columns = [
            BinTableColumn(str(header[f"TTYPE{i}"]), str(header[f"TFORM{i}"]))
            for i in range(1, n_fields + 1)
        ]
        table = cls(columns, header)
        row_bytes = table.row_bytes
        declared = int(header["NAXIS1"])  # type: ignore[arg-type]
        if declared != row_bytes:
            raise ValueError(f"NAXIS1={declared} disagrees with column widths ({row_bytes})")
        need = offset + n_rows * row_bytes
        if need > len(data):
            raise ValueError("truncated BINTABLE data")
        pos = offset
        for _ in range(n_rows):
            row = []
            for column in columns:
                chunk = data[pos : pos + column.width_bytes]
                pos += column.width_bytes
                row.append(_decode_cell(chunk, column))
            table.append(row)
        consumed = offset + ((n_rows * row_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        return table, consumed


def _decode_cell(chunk: bytes, column: BinTableColumn):
    letter = column.letter
    if letter == "A":
        text = chunk.decode("ascii", errors="replace").rstrip()
        return text if text else None
    if letter == "L":
        if chunk == b"\x00":
            return None
        return chunk == b"T"
    dtype, _ = _SCALAR_FORMS[letter]
    value = np.frombuffer(chunk, dtype=dtype)[0]
    if letter in ("E", "D"):
        return None if np.isnan(value) else float(value)
    return int(value)


# -- VOTable interchange -----------------------------------------------------


def votable_to_bintable(table: VOTable, string_width: int = 32) -> BinTableHDU:
    """Convert a VOTable into a BINTABLE HDU (strings fixed at
    ``string_width`` unless a row needs more)."""
    columns = []
    for f in table.fields:
        if f.datatype == "char":
            width = string_width
            for row in table:
                value = row[f.name]
                if value is not None:
                    width = max(width, len(str(value)))
            columns.append(BinTableColumn(f.name, f"{width}A"))
        else:
            columns.append(BinTableColumn(f.name, _VOTABLE_TO_TFORM[f.datatype]))
    out = BinTableHDU(columns)
    if table.name:
        out.header.set("EXTNAME", table.name)
    for raw in table.rows():
        out.append(raw)
    return out


def bintable_to_votable(hdu: BinTableHDU) -> VOTable:
    """Convert back; TFORM letters map onto VOTable datatypes."""
    fields = []
    for column in hdu.columns:
        if column.letter == "A":
            fields.append(Field(column.name, "char"))
        else:
            fields.append(Field(column.name, _SCALAR_FORMS[column.letter][1]))
    name = hdu.header.get("EXTNAME")
    table = VOTable(fields, name=str(name) if name else "")
    for row in hdu.rows():
        table.append(row)
    return table
