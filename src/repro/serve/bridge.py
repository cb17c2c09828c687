"""The worker bridge: blocking Grid work kept off the event loop.

Everything behind the HTTP tier is synchronous and lock-protected — the
:class:`~repro.scheduler.service.WorkloadManager` (condition variable +
dispatcher threads), the journal, the synthetic data services.  The bridge
runs those calls on a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
so a slow journal append or a long cone selection never stalls connection
handling, and the executor size bounds how much blocking work the serve
tier will take on at once (the asyncio side queues behind it).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, TypeVar

T = TypeVar("T")


class WorkerBridge:
    """Run blocking callables on a dedicated pool, awaitably."""

    def __init__(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="serve-bridge"
        )
        self._closed = False

    async def call(self, fn: Callable[..., T], *args: Any, **kwargs: Any) -> T:
        """Await ``fn(*args, **kwargs)`` executed on the bridge pool.

        The caller's :mod:`contextvars` context rides along, so spans
        opened on the pool thread parent to the HTTP request's
        ``serve.request`` span instead of starting orphan traces.
        """
        if self._closed:
            raise RuntimeError("worker bridge is closed")
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            self._executor, functools.partial(ctx.run, fn, *args, **kwargs)
        )

    def close(self) -> None:
        """Shut the pool down (idempotent); queued work is cancelled."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerBridge":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
