"""Shared helpers for the serving-tier tests.

The stack-building helpers run everything inside one ``asyncio.run`` per
test (the repo has no async test plugin), against a deliberately tiny
demonstration environment so each boot costs milliseconds, not seconds.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable

import pytest

from repro.catalog.coords import SkyPosition
from repro.serve.harness import ServingStack, build_serving_stack
from repro.sky.cluster import ClusterModel

from tests.doubles import SyntheticJobRunner

TINY_NAME = "SRV01"
TINY_RA, TINY_DEC = 150.0, 2.2


def tiny_cluster(name: str = TINY_NAME, n: int = 12) -> ClusterModel:
    return ClusterModel(
        name=name,
        center=SkyPosition(TINY_RA, TINY_DEC),
        redshift=0.05,
        n_galaxies=n,
        core_radius_deg=0.04,
        seed=7,
        context_image_count=4,
    )


def build_tiny_stack(**kwargs) -> ServingStack:
    kwargs.setdefault("runner", SyntheticJobRunner())
    kwargs.setdefault("clusters", [tiny_cluster()])
    return build_serving_stack(**kwargs)


def run_with_app(
    fn: Callable[[ServingStack], Awaitable[object]], **stack_kwargs
) -> object:
    """Run ``fn`` against a started manager + app (no listening socket)."""

    async def runner() -> object:
        stack = build_tiny_stack(**stack_kwargs)
        stack.manager.start()
        try:
            return await fn(stack)
        finally:
            stack.manager.stop()

    return asyncio.run(runner())


def run_with_server(
    fn: Callable[[ServingStack, str, int], Awaitable[object]], **stack_kwargs
) -> object:
    """Run ``fn`` against a fully started stack on an ephemeral port."""

    async def runner() -> object:
        async with build_tiny_stack(**stack_kwargs) as stack:
            return await fn(stack, stack.server.host, stack.server.port)

    return asyncio.run(runner())


@pytest.fixture()
def cluster() -> ClusterModel:
    return tiny_cluster()


@pytest.fixture(autouse=True)
def _telemetry_reset():
    """Observability-enabled stacks turn the telemetry runtime on globally
    (``plane.enable()``); make sure no test leaks that into the next."""
    yield
    from repro import telemetry

    telemetry.disable()
