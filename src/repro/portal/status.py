"""The status board: the polled URL of the asynchronous web service.

§4.3: "the Pegasus web service immediately returns a URL where the status
of the computation is published ... The portal polls the returned URL until
it finds a 'job completed' status message accompanied by a URL pointing to
the location of the VOTable containing the computed results."
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import telemetry

#: Status pages kept, oldest evicted first.  The portal polls a page only
#: until its request completes, so the bound needs to exceed the requests
#: in flight, not the requests ever served.
PAGES_KEPT = 256


@dataclass(frozen=True)
class StatusMessage:
    """One line published at a status URL."""

    state: str  # "accepted" | "running" | "completed" | "failed" | ...
    text: str = ""
    result_url: str | None = None


@dataclass
class StatusPage:
    """Everything published under one request's status URL."""

    request_id: str
    messages: list[StatusMessage] = field(default_factory=list, init=False)

    @property
    def latest(self) -> StatusMessage:
        return self.messages[-1]

    @property
    def completed(self) -> bool:
        return self.latest.state in ("completed", "failed")


class StatusBoard:
    """URL-addressed store of status pages (the java servlet of Fig. 6.7)."""

    base_url = "http://isi.grid/galmorph/status"

    def __init__(self) -> None:
        self._pages: dict[str, StatusPage] = {}
        self._lock = threading.Lock()
        self.poll_count = 0

    def create(self, request_id: str) -> str:
        """Open a page for a new request; returns its status URL."""
        with self._lock:
            if request_id in self._pages:
                raise ValueError(f"status page for {request_id!r} already exists")
            self._pages[request_id] = StatusPage(request_id)
            if len(self._pages) > PAGES_KEPT:
                del self._pages[next(iter(self._pages))]
        return f"{self.base_url}/{request_id}"

    def post(self, request_id: str, state: str, text: str = "", result_url: str | None = None) -> None:
        with self._lock:
            if request_id not in self._pages:
                raise KeyError(f"no status page for request {request_id!r}")
            self._pages[request_id].messages.append(StatusMessage(state, text, result_url))
        telemetry.count("status_posts_total", state=state)

    def poll(self, status_url: str) -> StatusMessage:
        """What a GET of the status URL returns: the latest message."""
        request_id = status_url.rsplit("/", 1)[-1]
        with self._lock:
            self.poll_count += 1
            if request_id not in self._pages:
                raise KeyError(f"no status page at {status_url!r}")
            page = self._pages[request_id]
            if not page.messages:
                message = StatusMessage("accepted", "request received")
            else:
                message = page.latest
        telemetry.count("status_polls_total")
        return message

    def page(self, request_id: str) -> StatusPage:
        with self._lock:
            return self._pages[request_id]
