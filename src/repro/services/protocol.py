"""The Cone Search and SIA request protocols.

Both are "simple, highly-specialized" HTTP GET interfaces whose primary
selection criterion is position on the sky (§3.1).  Requests round-trip
through their URL form, which the tests verify — the URL *is* the protocol.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass

from repro.core.errors import ServiceError


def _validate_position(ra: float, dec: float) -> None:
    if not 0.0 <= ra < 360.0:
        raise ServiceError(f"RA out of range [0, 360): {ra}")
    if not -90.0 <= dec <= 90.0:
        raise ServiceError(f"Dec out of range [-90, 90]: {dec}")


@dataclass(frozen=True)
class ConeSearchRequest:
    """Cone Search: all catalog records within ``sr`` degrees of (ra, dec)."""

    ra: float
    dec: float
    sr: float

    def __post_init__(self) -> None:
        _validate_position(self.ra, self.dec)
        if not self.sr >= 0:  # NaN fails too
            raise ServiceError(f"search radius must be non-negative: {self.sr}")

    def to_url(self, base: str) -> str:
        query = urllib.parse.urlencode({"RA": self.ra, "DEC": self.dec, "SR": self.sr})
        return f"{base}?{query}"

    @classmethod
    def from_url(cls, url: str) -> "ConeSearchRequest":
        params = _query_params(url)
        try:
            return cls(ra=float(params["RA"]), dec=float(params["DEC"]), sr=float(params["SR"]))
        except KeyError as exc:
            raise ServiceError(f"cone search URL missing parameter {exc}") from exc


@dataclass(frozen=True)
class SIARequest:
    """Simple Image Access: images overlapping a rectangle on the sky.

    ``POS`` is the centre (ra, dec); ``SIZE`` the angular width/height in
    degrees.  ``fmt`` mirrors the protocol's FORMAT parameter.
    """

    ra: float
    dec: float
    size: float
    fmt: str = "image/fits"

    def __post_init__(self) -> None:
        _validate_position(self.ra, self.dec)
        if not self.size > 0:  # NaN fails too
            raise ServiceError(f"SIA SIZE must be positive: {self.size}")

    def to_url(self, base: str) -> str:
        query = urllib.parse.urlencode(
            {"POS": f"{self.ra},{self.dec}", "SIZE": self.size, "FORMAT": self.fmt}
        )
        return f"{base}?{query}"

    @classmethod
    def from_url(cls, url: str) -> "SIARequest":
        params = _query_params(url)
        try:
            ra_text, dec_text = params["POS"].split(",")
            return cls(
                ra=float(ra_text),
                dec=float(dec_text),
                size=float(params["SIZE"]),
                fmt=params.get("FORMAT", "image/fits"),
            )
        except (KeyError, ValueError) as exc:
            raise ServiceError(f"malformed SIA URL {url!r}: {exc}") from exc


def _query_params(url: str) -> dict[str, str]:
    parsed = urllib.parse.urlparse(url)
    return {k: v[0] for k, v in urllib.parse.parse_qs(parsed.query).items()}
