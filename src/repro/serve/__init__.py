"""The portal serving tier: asyncio HTTP in front of the workload manager.

The paper's portal (Figure 5) is the user-facing entry point; this package
is its network tier, built entirely on the standard library:

* :mod:`repro.serve.http` — minimal HTTP/1.1 parsing and (streamed)
  response writing over asyncio streams, with slow-client deadlines;
* :mod:`repro.serve.app` — endpoint routing (Cone/SIA queries, job
  submit/status/result, queue, health, metrics), per-tenant admission and
  429 + ``Retry-After`` backpressure reusing the scheduler's policy bounds;
* :mod:`repro.serve.server` — connection handling: keep-alive, connection
  caps with accept-and-shed, leak-free graceful shutdown (blocking Grid
  work leaves the event loop through :func:`asyncio.to_thread`);
* :mod:`repro.serve.loadgen` — the open-loop load generator (Poisson
  arrivals, tenant mixes, thundering-herd and slow-client scenarios)
  behind ``repro loadgen`` and the SLO benchmarks; a client, so the
  package does not import it: import it from its module;
* :mod:`repro.serve.observability` — the live observability plane:
  request tracing across the HTTP boundary, windowed rates, flight
  recorder, SLO burn tracking and the ``/debug`` surface;
* :mod:`repro.serve.harness` — one-call wiring of the whole stack.
"""

from repro.serve.app import ServeApp, TenantGate
from repro.serve.harness import ServingStack, build_serving_stack
from repro.serve.observability import ObservabilityPlane
from repro.serve.http import (
    HttpError,
    HttpRequest,
    Response,
    SlowClientError,
    StreamingResponse,
)
from repro.serve.server import PortalHttpServer

__all__ = [
    "HttpError",
    "HttpRequest",
    "ObservabilityPlane",
    "PortalHttpServer",
    "Response",
    "ServeApp",
    "ServingStack",
    "SlowClientError",
    "StreamingResponse",
    "TenantGate",
    "build_serving_stack",
]
