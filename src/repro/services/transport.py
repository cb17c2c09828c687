"""Transport cost model: why SIA was the bottleneck and GridFTP was not.

§4.2: "The major bottleneck in the application's operation is the querying
of image servers ... This is due to some inherent inefficiencies in the SIA
protocol: an image query and download for each galaxy must be done
separately."  §4.3.1(3): cached data "is then available via GridFTP, which
provides much better performance than the SIA."

The model charges a fixed per-request latency plus size/bandwidth, with
2003-plausible defaults making SIA overhead-dominated for 20 KB cutouts and
GridFTP bandwidth-dominated.  Costs accrue in virtual seconds on a
:class:`CostMeter`, so portal/service benchmarks measure protocol shape,
not wall-clock noise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ClassVar

from repro.utils.units import KB, MB


@dataclass(frozen=True)
class ProtocolCost:
    """Latency + bandwidth parameters of one access protocol."""

    request_latency_s: float
    bandwidth_bps: float

    def time(self, nbytes: int = 0) -> float:
        """Virtual seconds to issue one request moving ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative payload size: {nbytes}")
        return self.request_latency_s + nbytes / self.bandwidth_bps


@dataclass(frozen=True)
class TransportModel:
    """Per-protocol costs for the demonstration environment.

    * ``sia_query`` — one SIA/Cone Search HTTP GET returning VOTable
      metadata (latency-dominated: a web query against a 2003 archive).
    * ``sia_download`` — one HTTP image download through the archive stack.
    * ``gridftp`` — bulk parallel-stream transfer between Grid sites.
    """

    sia_query: ClassVar[ProtocolCost] = ProtocolCost(request_latency_s=0.8, bandwidth_bps=256 * KB)
    sia_download: ClassVar[ProtocolCost] = ProtocolCost(request_latency_s=0.5, bandwidth_bps=512 * KB)
    gridftp: ClassVar[ProtocolCost] = ProtocolCost(request_latency_s=0.05, bandwidth_bps=10 * MB)
    #: Transport-level timeout.  A call that times out is charged this
    #: *full* duration on the meter — waiting for nothing is the most
    #: expensive way a call can fail, and benchmarks under chaos must
    #: reflect that real wall cost.
    timeout_s: ClassVar[float] = 10.0

    def batched_query_time(self, n_items: int, nbytes_total: int) -> float:
        """The hypothetical batch interface of §4.2 ("This could be sped up
        tremendously if one could query for all images at once"): one
        request latency, same payload volume."""
        if n_items < 1:
            raise ValueError("batch must contain at least one item")
        return self.sia_query.time(nbytes_total)


class CostMeter:
    """Accumulates virtual transport seconds, by category."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals: dict[str, float] = {}
        self._counts: dict[str, int] = {}

    def charge(self, category: str, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"negative charge: {seconds}")
        with self._lock:
            self._totals[category] = self._totals.get(category, 0.0) + seconds
            self._counts[category] = self._counts.get(category, 0) + 1

    def total(self, category: str | None = None) -> float:
        with self._lock:
            if category is None:
                return sum(self._totals.values())
            return self._totals.get(category, 0.0)

    def count(self, category: str) -> int:
        with self._lock:
            return self._counts.get(category, 0)

    def breakdown(self) -> dict[str, float]:
        with self._lock:
            return dict(self._totals)
