"""Condor pools and the Grid topology connecting them.

The paper's campaign ran on "three Condor pools, one each at University of
Southern California, University of Wisconsin, and Fermilab";
:func:`GridTopology.default_demo` builds that configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.units import MB


@dataclass(frozen=True)
class CondorPool:
    """One compute site.

    Attributes
    ----------
    name:
        Site name; matches TC/RLS site names.
    slots:
        Concurrently running jobs the pool accepts.
    speed:
        Relative CPU speed (runtime divisor).
    failure_rate:
        Probability an individual job invocation fails (failure injection
        for the §4.3.1(4) fault-tolerance experiments).
    """

    name: str
    slots: int = 10
    speed: float = 1.0
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"pool {self.name!r} needs at least one slot")
        if self.speed <= 0:
            raise ValueError(f"pool {self.name!r} speed must be positive")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError(f"pool {self.name!r} failure rate must be in [0, 1)")


@dataclass
class GridTopology:
    """Pools plus the network model between all sites (GridFTP links).

    Any site name not in ``pools`` (storage-only sites like the service
    cache) still participates in transfers via the default link parameters.
    """

    #: every GridFTP link: 80 Mbit/s circa 2003, 0.2 s to set up
    default_bandwidth_bps = 10.0 * MB
    default_latency_s = 0.2

    pools: dict[str, CondorPool] = field(default_factory=dict, init=False)

    def add_pool(self, pool: CondorPool) -> None:
        if pool.name in self.pools:
            raise ValueError(f"pool {pool.name!r} already in topology")
        self.pools[pool.name] = pool

    def capacities(self) -> dict[str, int]:
        return {name: pool.slots for name, pool in self.pools.items()}

    def transfer_time(self, src: str, dst: str, size_bytes: int) -> float:
        """GridFTP transfer-time model: latency + size/bandwidth."""
        if src == dst:
            return 0.0
        return self.default_latency_s + size_bytes / self.default_bandwidth_bps

    @classmethod
    def default_demo(cls, failure_rate: float = 0.0) -> "GridTopology":
        """The paper's three-pool testbed (§5)."""
        topo = cls()
        topo.add_pool(CondorPool("isi", slots=12, speed=1.0, failure_rate=failure_rate))
        topo.add_pool(CondorPool("uwisc", slots=20, speed=1.1, failure_rate=failure_rate))
        topo.add_pool(CondorPool("fnal", slots=16, speed=0.9, failure_rate=failure_rate))
        return topo
