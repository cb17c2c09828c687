"""Test doubles injected into in-process serving and scheduler tests.

The product runs only :class:`~repro.scheduler.runner.PortalJobRunner`.
Tests that exercise routing, admission, journaling and recovery without
paying for morphology pass a :class:`SyntheticJobRunner` *object* to
:class:`~repro.scheduler.service.WorkloadManager` (or to
``build_serving_stack(runner=...)``).  A spawned shard worker cannot take
an object, so fleet tests run the real runner on small generated clusters.
"""

from __future__ import annotations

import hashlib
import threading
import time

from repro.scheduler.job import JobSpec
from repro.scheduler.runner import JobOutcome
from repro.votable.model import Field, VOTable
from repro.votable.writer import write_votable


class SyntheticJobRunner:
    """A deterministic, cheap job body: a seeded sleep plus an eight-row table.

    The produced VOTable depends only on the spec's cluster and options
    (so result caching and byte-identity assertions behave exactly as with
    real jobs), and the job "runs" for a sleep derived from the spec's
    signature — stable across runs, varied across jobs.  Its timings
    measure the sleep, so no number is ever reported from it.
    """

    #: the sleep is ``base + spread * (a signature byte / 255)`` seconds
    BASE_SECONDS = 0.005
    SPREAD_SECONDS = 0.01

    def __init__(
        self, base_seconds: float = BASE_SECONDS, spread_seconds: float = SPREAD_SECONDS
    ) -> None:
        self.base_seconds = base_seconds
        self.spread_seconds = spread_seconds

    def run(self, spec: JobSpec, resume_from: set[str] | None) -> JobOutcome:
        key = f"{spec.cluster}|{sorted(spec.options)}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        time.sleep(self.base_seconds + self.spread_seconds * digest[0] / 255.0)
        table = VOTable(
            [
                Field("id", "char"),
                Field("concentration", "double"),
                Field("asymmetry", "double"),
            ],
            name=f"{spec.cluster}-morphology",
            params={"cluster": spec.cluster},
        )
        for i in range(8):
            table.append(
                {
                    "id": f"{spec.cluster}-{i:04d}",
                    "concentration": 1.0 + digest[i + 1] / 64.0,
                    "asymmetry": digest[i + 9] / 512.0,
                }
            )
        return JobOutcome(result_bytes=write_votable(table).encode("utf-8"))


class HeldJobRunner:
    """A job body that stays running until the test releases it, then runs
    ``then`` (by default an instant :class:`SyntheticJobRunner`)."""

    def __init__(self, then: SyntheticJobRunner | None = None) -> None:
        self.started = threading.Event()
        self.release = threading.Event()
        self.then = then if then is not None else SyntheticJobRunner(0.0, 0.0)

    def run(self, spec: JobSpec, resume_from: set[str] | None) -> JobOutcome:
        self.started.set()
        self.release.wait(10.0)
        return self.then.run(spec, resume_from)
