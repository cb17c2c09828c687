"""Structured event log.

The planning pipeline of Figure 2 and the portal flow of Figure 5 are
specified as *numbered message sequences*.  To reproduce those figures we
record every significant action as an :class:`Event` in an :class:`EventLog`
and assert on the resulting trace in tests and benchmarks.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator

#: A log keeps its most recent events: a whole eight-cluster campaign emits
#: about a hundred, and a long-lived server's log must not grow per request.
EVENTS_KEPT = 4096


@dataclass(frozen=True)
class Event:
    """A single timestamped, categorised log record.

    Attributes
    ----------
    time:
        Simulation or wall-clock time at which the event occurred.
    source:
        Component that emitted the event (``"pegasus"``, ``"portal"``, ...).
    kind:
        Machine-readable event type (``"abstract-dag"``, ``"stage-in"``, ...).
    detail:
        Free-form payload for humans and assertions.
    """

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        payload = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.source:>10s} {self.kind}: {payload}"


class EventLog:
    """Append-only, thread-safe sequence of the last :data:`EVENTS_KEPT`
    :class:`Event` records."""

    def __init__(self) -> None:
        self._events: deque[Event] = deque(maxlen=EVENTS_KEPT)
        self._lock = threading.Lock()

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> Event:
        """Record and return a new event."""
        event = Event(time=time, source=source, kind=kind, detail=dict(detail))
        with self._lock:
            self._events.append(event)
        return event

    def __iter__(self) -> Iterator[Event]:
        with self._lock:
            return iter(list(self._events))

    def kinds(self) -> list[str]:
        """The sequence of event kinds, useful for golden-trace assertions."""
        return [e.kind for e in self]
