"""Tangent-plane (gnomonic, CTYPE = RA---TAN / DEC--TAN) world coordinates.

This is the projection used by DSS/SDSS-style survey plates and therefore by
every image the prototype handles.  Conversions are vectorised over numpy
arrays; pixel coordinates follow the FITS convention (1-based, NAXIS1 = x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fits.header import Header


@dataclass(frozen=True)
class TanWCS:
    """Gnomonic WCS defined by reference sky point, reference pixel, scale.

    Attributes
    ----------
    crval1, crval2:
        Sky coordinates (RA, Dec in degrees) of the reference pixel.
    crpix1, crpix2:
        1-based pixel coordinates of the reference point.
    cdelt1, cdelt2:
        Pixel scale in degrees/pixel along x and y.  ``cdelt1`` is
        conventionally negative (RA increases leftwards on the sky).
    """

    crval1: float
    crval2: float
    crpix1: float
    crpix2: float
    cdelt1: float
    cdelt2: float

    def __post_init__(self) -> None:
        if self.cdelt1 == 0 or self.cdelt2 == 0:
            raise ValueError("pixel scale (CDELT) must be non-zero")
        if not -90.0 <= self.crval2 <= 90.0:
            raise ValueError(f"CRVAL2 (Dec) out of range: {self.crval2}")

    # -- projections --------------------------------------------------------
    def sky_to_pixel(self, ra: np.ndarray | float, dec: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Project sky coordinates (degrees) to 1-based pixel coordinates."""
        ra = np.deg2rad(np.asarray(ra, dtype=float))
        dec = np.deg2rad(np.asarray(dec, dtype=float))
        ra0 = np.deg2rad(self.crval1)
        dec0 = np.deg2rad(self.crval2)
        dra = ra - ra0
        denom = np.sin(dec) * np.sin(dec0) + np.cos(dec) * np.cos(dec0) * np.cos(dra)
        with np.errstate(divide="raise", invalid="raise"):
            if np.any(denom <= 0):
                raise ValueError("point is on or beyond the tangent-plane horizon")
            xi = np.cos(dec) * np.sin(dra) / denom
            eta = (np.sin(dec) * np.cos(dec0) - np.cos(dec) * np.sin(dec0) * np.cos(dra)) / denom
        x = self.crpix1 + np.rad2deg(xi) / self.cdelt1
        y = self.crpix2 + np.rad2deg(eta) / self.cdelt2
        return x, y

    def pixel_to_sky(self, x: np.ndarray | float, y: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """De-project 1-based pixel coordinates to (RA, Dec) in degrees."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xi = np.deg2rad((x - self.crpix1) * self.cdelt1)
        eta = np.deg2rad((y - self.crpix2) * self.cdelt2)
        ra0 = np.deg2rad(self.crval1)
        dec0 = np.deg2rad(self.crval2)
        rho = np.sqrt(1.0 + xi**2 + eta**2)
        dec = np.arcsin((np.sin(dec0) + eta * np.cos(dec0)) / rho)
        ra = ra0 + np.arctan2(xi, np.cos(dec0) - eta * np.sin(dec0))
        return np.rad2deg(ra) % 360.0, np.rad2deg(dec)

    # -- FITS header plumbing ------------------------------------------------
    def to_header(self, header: Header | None = None) -> Header:
        """Write the WCS keywords into ``header`` (new one if omitted)."""
        hdr = header if header is not None else Header()
        hdr.set("CTYPE1", "RA---TAN", "gnomonic projection")
        hdr.set("CTYPE2", "DEC--TAN", "gnomonic projection")
        hdr.set("CRVAL1", float(self.crval1), "[deg] RA at reference pixel")
        hdr.set("CRVAL2", float(self.crval2), "[deg] Dec at reference pixel")
        hdr.set("CRPIX1", float(self.crpix1), "reference pixel x")
        hdr.set("CRPIX2", float(self.crpix2), "reference pixel y")
        hdr.set("CDELT1", float(self.cdelt1), "[deg/pix] x scale")
        hdr.set("CDELT2", float(self.cdelt2), "[deg/pix] y scale")
        return hdr

    @classmethod
    def from_header(cls, header: Header) -> "TanWCS":
        """Build a :class:`TanWCS` from FITS keywords, validating CTYPE."""
        ctype1, ctype2 = header.get("CTYPE1"), header.get("CTYPE2")
        if ctype1 != "RA---TAN" or ctype2 != "DEC--TAN":
            raise ValueError(f"not a TAN WCS: CTYPE={ctype1!r},{ctype2!r}")
        return cls(
            crval1=float(header["CRVAL1"]),  # type: ignore[arg-type]
            crval2=float(header["CRVAL2"]),  # type: ignore[arg-type]
            crpix1=float(header["CRPIX1"]),  # type: ignore[arg-type]
            crpix2=float(header["CRPIX2"]),  # type: ignore[arg-type]
            cdelt1=float(header["CDELT1"]),  # type: ignore[arg-type]
            cdelt2=float(header["CDELT2"]),  # type: ignore[arg-type]
        )
