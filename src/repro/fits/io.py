"""FITS file I/O: byte-level and path-level read/write of primary HDUs."""

from __future__ import annotations

from pathlib import Path

from repro.fits.hdu import ImageHDU


def write_fits_bytes(hdu: ImageHDU) -> bytes:
    """Serialise ``hdu`` to a complete FITS byte stream."""
    return hdu.to_bytes()


def read_fits_bytes(data: bytes) -> ImageHDU:
    """Parse the primary HDU from a FITS byte stream.

    Trailing bytes (extension HDUs) are ignored — the prototype only ships
    single-HDU images.
    """
    hdu, _ = ImageHDU.from_bytes(data)
    return hdu


def write_fits(path: str | Path, hdu: ImageHDU) -> int:
    """Write ``hdu`` to ``path``; return the number of bytes written."""
    payload = hdu.to_bytes()
    Path(path).write_bytes(payload)
    return len(payload)
