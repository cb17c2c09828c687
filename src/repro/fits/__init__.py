"""Minimal FITS (Flexible Image Transport System) implementation.

The paper uses FITS (Hanisch 2001b) "in all our NVO demonstrations to
transport images".  astropy is not available in this environment, so this
package implements the subset the prototype needs, from the standard:

* 80-character header cards with ``KEYWORD = value / comment`` syntax,
  including string, logical, integer and floating-point values;
* 2880-byte header and data blocks;
* primary image HDUs with BITPIX in {-64, -32, 8, 16, 32, 64} and big-endian
  data ordering as mandated by the standard;
* tangent-plane (TAN / gnomonic) world coordinate systems, the projection
  used by SDSS/DSS-style survey imagery.

The implementation round-trips byte-exactly through files, which the
property-based tests in ``tests/fits`` verify.
"""

from repro.fits.bintable import (
    BinTableColumn,
    BinTableHDU,
    bintable_to_votable,
    votable_to_bintable,
)
from repro.fits.cards import Card, format_card, parse_card
from repro.fits.hdu import ImageHDU
from repro.fits.header import Header
from repro.fits.io import read_fits_bytes, write_fits, write_fits_bytes
from repro.fits.wcs import TanWCS

__all__ = [
    "BinTableColumn",
    "BinTableHDU",
    "bintable_to_votable",
    "votable_to_bintable",
    "Card",
    "format_card",
    "parse_card",
    "Header",
    "ImageHDU",
    "read_fits_bytes",
    "write_fits",
    "write_fits_bytes",
    "TanWCS",
]
