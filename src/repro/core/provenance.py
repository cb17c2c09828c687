"""Provenance: the virtual-data bookkeeping GriPhyN attaches to products.

"GriPhyN puts data both raw and derived under the umbrella of Virtual
Data" — every materialised file can answer *how it was made*: which
derivation, which transformation, which site, when, from which inputs.
The provenance store records one :class:`InvocationRecord` per executed
compute node and indexes them by output logical file.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass(frozen=True)
class InvocationRecord:
    """One completed (or failed) transformation invocation."""

    job_id: str
    transformation: str
    site: str
    start_time: float
    end_time: float
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    parameters: dict[str, str] = field(default_factory=dict)
    success: bool = True

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


class ProvenanceStore:
    """Append-only store of invocation records, indexed by output LFN."""

    def __init__(self) -> None:
        self._records: list[InvocationRecord] = []
        self._by_output: dict[str, InvocationRecord] = {}
        self._lock = threading.Lock()

    def record(self, invocation: InvocationRecord) -> None:
        with self._lock:
            self._records.append(invocation)
            if invocation.success:
                for lfn in invocation.outputs:
                    self._by_output[lfn] = invocation

    def lineage(self, lfn: str) -> list[InvocationRecord]:
        """The derivation chain behind ``lfn``, outputs-first.

        Walks producing invocations transitively through their inputs;
        stops at raw data (no recorded producer).
        """
        chain: list[InvocationRecord] = []
        seen: set[str] = set()
        frontier = [lfn]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            producer = self.producer(current)
            if producer is None:
                continue
            chain.append(producer)
            frontier.extend(producer.inputs)
        return chain

    def producer(self, lfn: str) -> InvocationRecord | None:
        with self._lock:
            return self._by_output.get(lfn)

    # -- explanation -------------------------------------------------------------
    def lineage_text(self, lfn: str) -> str:
        """Human-readable derivation history of ``lfn``, outputs-first.

        This is the "how was this made?" answer virtual data promises; the
        CLI's ``explain`` subcommand prints it.
        """
        chain = self.lineage(lfn)
        if not chain:
            return f"{lfn}: raw data (no recorded derivation)"
        lines = [f"{lfn} was derived by:"]
        for record in chain:
            status = "ok" if record.success else "FAILED"
            lines.append(
                f"  {record.job_id}: {record.transformation} @ {record.site} "
                f"[{status}, {record.duration:.2f}s]"
                + (f"  <- {', '.join(record.inputs)}" if record.inputs else "")
            )
        return "\n".join(lines)
