"""The Cone Search and SIA request protocols.

Both are "simple, highly-specialized" HTTP GET interfaces whose primary
selection criterion is position on the sky (§3.1).  Requests round-trip
through their URL form — the URL *is* the protocol: a client writes it with
``to_url`` and the serving tier's ``/cone`` and ``/sia`` routes read its
query parameters back with ``from_query``.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass
from typing import Mapping

from repro.core.errors import ServiceError


def _float_param(query: Mapping[str, str], name: str) -> float:
    value = query.get(name)
    if value is None:
        raise ServiceError(f"missing query parameter {name}")
    try:
        return float(value)
    except ValueError as exc:
        raise ServiceError(f"malformed {name}={value!r}") from exc


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
    def from_query(cls, query: Mapping[str, str]) -> "ConeSearchRequest":
        return cls(ra=_float_param(query, "RA"), dec=_float_param(query, "DEC"), sr=_float_param(query, "SR"))


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
    def from_query(cls, query: Mapping[str, str]) -> "SIARequest":
        pos = query.get("POS")
        if pos is None:
            raise ServiceError("missing query parameter POS")
        parts = pos.split(",")
        if len(parts) != 2:
            raise ServiceError(f"malformed POS={pos!r}; expected RA,DEC")
        try:
            ra, dec = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        return cls(ra=ra, dec=dec, size=_float_param(query, "SIZE"), fmt=query.get("FORMAT", "image/fits"))
