"""Job model: what a tenant submits and what the manager tracks.

A *job* is one request to analyse one cluster for one user.  Jobs carry a
**derivation signature** — the content-address of the virtual data product
they would materialise (cluster + morphology options + code version) — so
the workload manager can recognise a resubmitted or overlapping analysis
and answer it from the RLS-backed result cache exactly like Pegasus prunes
already-materialised files out of an abstract workflow.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro import __version__ as CODE_VERSION


class JobState(str, enum.Enum):
    """Lifecycle of a submission."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States from which a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.COMPLETED, JobState.FAILED, JobState.CANCELLED}
)


@dataclass(frozen=True)
class JobSpec:
    """What the tenant asked for.

    ``options`` are the analysis knobs that change the derived product
    (morphology parameters, batching, ...); anything affecting output bytes
    belongs here because it feeds the derivation signature.
    """

    user: str
    cluster: str
    options: tuple[tuple[str, Any], ...] = ()
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.user:
            raise ValueError("job spec requires a user")
        if not self.cluster:
            raise ValueError("job spec requires a cluster")

    @classmethod
    def create(
        cls,
        user: str,
        cluster: str,
        options: Mapping[str, Any] | None = None,
        priority: int = 0,
    ) -> "JobSpec":
        """Normalise ``options`` into a canonical sorted tuple."""
        items = tuple(sorted((options or {}).items()))
        return cls(user=user, cluster=cluster, options=items, priority=priority)

    def options_dict(self) -> dict[str, Any]:
        return dict(self.options)


def derivation_signature(spec: JobSpec, code_version: str = CODE_VERSION) -> str:
    """The cache key of the product ``spec`` derives.

    Two submissions collide exactly when they would materialise the same
    bytes: same cluster, same analysis options, same code version.  The
    user and priority deliberately do **not** participate — cross-tenant
    reuse is the whole point ("some other user may have already
    materialized part of the entire required dataset", §3.2).
    """
    payload = json.dumps(
        {
            "cluster": spec.cluster,
            "options": [[k, repr(v)] for k, v in spec.options],
            "version": code_version,
        },
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    return f"sig-{digest}"


@dataclass(frozen=True)
class JobAccounting:
    """What one job's compute request cost the Grid; summed over the eight
    clusters, the paper's §5 numbers.  A failed attempt produced no catalog,
    so its galaxy and image counts are zero; a request answered from the RLS
    ran nothing, so its Grid and image counts are."""

    galaxies: int
    valid_measurements: int
    #: successful compute nodes: one galMorph per galaxy plus the concat
    compute_jobs: int
    transfers: int
    stage_in: int
    inter_site: int
    stage_out: int
    #: galaxy cutouts plus context images, and their bytes
    images: int
    image_bytes: int
    jobs_per_site: dict[str, int]
    failed_nodes: int
    unrunnable_nodes: int


def accounting_from(data: Mapping[str, Any] | None) -> JobAccounting | None:
    """The record a journal line's or a view's ``accounting`` holds (the
    inverse of ``asdict``); ``None`` when there is none."""
    return JobAccounting(**data) if data is not None else None


@dataclass
class JobRecord:
    """The manager's book-keeping for one submission."""

    job_id: str
    spec: JobSpec
    signature: str
    seq: int
    submitted_at: float
    state: JobState = JobState.QUEUED
    attempts: int = 0
    #: name of the shard whose journal owns this job (``""`` unsharded).
    #: Journaled with the submit record so placement survives crash-replay
    #: and shows up in ``repro queue``/``repro top``.
    shard: str = ""
    # What follows is never given at construction: journal lines fill it in
    # (``JournalState.apply``), the manager stamps the last two.
    started_at: float | None = field(default=None, init=False)
    finished_at: float | None = field(default=None, init=False)
    cache_hit: bool = field(default=False, init=False)
    resumed_nodes: int = field(default=0, init=False)
    result_lfn: str = field(default="", init=False)
    error: str = field(default="", init=False)
    #: the §5 accounting of the attempt that ended the job (``None``: none ran)
    accounting: JobAccounting | None = field(default=None, init=False)
    extra: dict[str, Any] = field(default_factory=dict, init=False)
    #: earliest monotonic clock value at which a requeued job may be
    #: re-dispatched (transient-failure backoff); ``None`` = immediately.
    not_before: float | None = field(default=None, init=False)
    #: the submitting request's trace context (when the observability plane
    #: is on): dispatch re-attaches it so executor spans join the HTTP
    #: request's trace.  Process-local; never journaled.
    trace_ctx: Any = field(default=None, init=False, repr=False, compare=False)

    # -- timing -----------------------------------------------------------------
    @property
    def wait_seconds(self) -> float | None:
        """Queue wait: submission to first dispatch (never negative —
        journal-replayed timestamps may come from another process's
        monotonic clock)."""
        if self.started_at is None:
            return None
        return max(0.0, self.started_at - self.submitted_at)

    @property
    def run_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    # -- (de)serialisation -------------------------------------------------------
    def view(self) -> dict[str, Any]:
        """The one JSON-ready rendering of a record: ``/jobs/{id}``,
        ``/queue``, ``repro queue --json``, manager/fleet snapshots and the
        shard wire protocol all serve exactly this dict
        (:func:`repro.shard.worker.record_from_payload` is its inverse).

        The ``*_ts`` keys are the wall-clock stamps of the journal lines
        (``None`` until the event happened) and ``wait_s`` the queue wait
        they imply; ``*_at`` / ``*_seconds`` are on the manager's clock.
        """
        submitted = self.extra.get("submitted_ts")
        started = self.extra.get("started_ts")
        wait = None
        if submitted is not None and started is not None:
            wait = round(max(0.0, started - submitted), 6)
        return {
            **self.as_record(),
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "cache_hit": self.cache_hit,
            "resumed_nodes": self.resumed_nodes,
            "result_lfn": self.result_lfn,
            "error": self.error,
            "accounting": asdict(self.accounting) if self.accounting is not None else None,
            "terminal": self.terminal,
            "wait_seconds": self.wait_seconds,
            "run_seconds": self.run_seconds,
            "submitted_ts": submitted,
            "started_ts": started,
            "finished_ts": self.extra.get("finished_ts"),
            "wait_s": wait,
        }

    def as_record(self) -> dict[str, Any]:
        """The ``job`` payload of a ``submit`` journal line."""
        record = {
            "job_id": self.job_id,
            "user": self.spec.user,
            "cluster": self.spec.cluster,
            "options": [[k, v] for k, v in self.spec.options],
            "priority": self.spec.priority,
            "signature": self.signature,
            "seq": self.seq,
            "submitted_at": self.submitted_at,
            "state": self.state.value,
            "attempts": self.attempts,
        }
        if self.shard:
            record["shard"] = self.shard
        return record

    @classmethod
    def from_record(cls, data: Mapping[str, Any]) -> "JobRecord":
        spec = JobSpec(
            user=data["user"],
            cluster=data["cluster"],
            options=tuple((k, v) for k, v in data.get("options", ())),
            priority=int(data.get("priority", 0)),
        )
        return cls(
            job_id=data["job_id"],
            spec=spec,
            signature=data["signature"],
            seq=int(data["seq"]),
            submitted_at=float(data["submitted_at"]),
            state=JobState(data.get("state", "queued")),
            attempts=int(data.get("attempts", 0)),
            shard=str(data.get("shard", "")),
        )
