"""Primary image HDU: header + n-dimensional big-endian array."""

from __future__ import annotations

import numpy as np

from repro.fits.header import BLOCK_SIZE, Header

#: FITS BITPIX code -> numpy dtype (big-endian where multi-byte).
_BITPIX_TO_DTYPE = {
    8: np.dtype(">u1"),
    16: np.dtype(">i2"),
    32: np.dtype(">i4"),
    64: np.dtype(">i8"),
    -32: np.dtype(">f4"),
    -64: np.dtype(">f8"),
}
_KIND_TO_BITPIX = {
    ("u", 1): 8,
    ("i", 2): 16,
    ("i", 4): 32,
    ("i", 8): 64,
    ("f", 4): -32,
    ("f", 8): -64,
}


def bitpix_for(dtype: np.dtype) -> int:
    """Return the FITS BITPIX code for ``dtype`` or raise ``TypeError``."""
    key = (dtype.kind, dtype.itemsize)
    if key not in _KIND_TO_BITPIX:
        raise TypeError(f"dtype {dtype} has no FITS BITPIX representation")
    return _KIND_TO_BITPIX[key]


class ImageHDU:
    """A primary FITS image HDU.

    ``data`` may be ``None`` for a header-only HDU (NAXIS=0).  Axis order
    follows the FITS convention: ``NAXIS1`` is the *fastest-varying* axis,
    i.e. the last numpy axis.
    """

    def __init__(self, data: np.ndarray | None = None, header: Header | None = None) -> None:
        self.data = None if data is None else np.asarray(data)
        if self.data is not None:
            bitpix_for(self.data.dtype)  # validate representability
        self.header = header if header is not None else Header()

    # -- serialisation -----------------------------------------------------
    def _structural_header(self) -> Header:
        """Header with mandatory structural keywords prepended/refreshed."""
        hdr = Header()
        hdr.set("SIMPLE", True, "conforms to FITS standard")
        if self.data is None:
            hdr.set("BITPIX", 8, "array data type")
            hdr.set("NAXIS", 0, "number of array dimensions")
        else:
            hdr.set("BITPIX", bitpix_for(self.data.dtype), "array data type")
            hdr.set("NAXIS", self.data.ndim, "number of array dimensions")
            for i, n in enumerate(reversed(self.data.shape), start=1):
                hdr.set(f"NAXIS{i}", int(n))
        structural = {"SIMPLE", "BITPIX", "NAXIS"} | {f"NAXIS{i}" for i in range(1, 10)}
        for card in self.header:
            if card.keyword not in structural:
                hdr.set(card.keyword, card.value, card.comment)
        return hdr

    def to_bytes(self) -> bytes:
        """Serialise header + data, each padded to 2880-byte blocks."""
        out = bytearray(self._structural_header().to_bytes())
        if self.data is not None:
            target = _BITPIX_TO_DTYPE[bitpix_for(self.data.dtype)]
            raw = np.ascontiguousarray(self.data, dtype=target).tobytes()
            out += raw
            out += b"\0" * ((-len(raw)) % BLOCK_SIZE)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> tuple["ImageHDU", int]:
        """Parse an HDU from ``data``; return it plus total bytes consumed."""
        header, offset = Header.from_bytes(data)
        if header.get("SIMPLE") is not True:
            raise ValueError("not a simple FITS primary HDU (SIMPLE != T)")
        naxis = int(header["NAXIS"])  # type: ignore[arg-type]
        if naxis == 0:
            return cls(None, header), offset
        shape = tuple(
            int(header[f"NAXIS{i}"]) for i in range(naxis, 0, -1)  # type: ignore[arg-type]
        )
        bitpix = int(header["BITPIX"])  # type: ignore[arg-type]
        if bitpix not in _BITPIX_TO_DTYPE:
            raise ValueError(f"unsupported BITPIX {bitpix}")
        dtype = _BITPIX_TO_DTYPE[bitpix]
        count = int(np.prod(shape))
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(data):
            raise ValueError("truncated FITS data section")
        array = np.frombuffer(data[offset : offset + nbytes], dtype=dtype).reshape(shape)
        consumed = offset + ((nbytes + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        # Native byte order for downstream numpy work; copy detaches from buffer.
        native = array.astype(dtype.newbyteorder("="), copy=True)
        return cls(native, header), consumed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = None if self.data is None else self.data.shape
        return f"ImageHDU(shape={shape}, cards={len(list(self.header))})"
