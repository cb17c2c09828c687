"""``repro.scheduler`` — the multi-tenant workload manager.

The paper's portal serves one cluster analysis at a time; the NVO vision
it argues for is a *service*: DAGMan/Condor-G executing many users'
derivations on shared pools, with Pegasus reusing already-materialised
products instead of recomputing them.  This package is that missing layer,
sitting in front of :func:`repro.portal.portal.GalaxyMorphologyPortal.run_analysis`:

* :mod:`~repro.scheduler.job` — job specs, derivation signatures, records;
* :mod:`~repro.scheduler.journal` — append-only JSONL journal with
  crash-replay (kill the service mid-queue, restart, lose nothing);
* :mod:`~repro.scheduler.policy` — admission control (per-user quotas,
  bounded queue depth) and fair-share ordering;
* :mod:`~repro.scheduler.cache` — the cross-submission result cache keyed
  by derivation signature: on disk beside a file journal, in the RLS
  otherwise;
* :mod:`~repro.scheduler.runner` — the execution adapters (the portal flow
  as a job body, plus the stub used in scheduling tests);
* :mod:`~repro.scheduler.service` — :class:`WorkloadManager`, the
  long-lived queue and its self-dispatching job threads, tying it all
  together.

Quick start::

    from repro.portal.demo import build_demo_environment
    from repro.scheduler import WorkloadManager

    env = build_demo_environment()
    with WorkloadManager.for_environment(env) as manager:
        job = manager.submit("alice", "A3526")
        record = manager.wait(job.job_id)
        votable_bytes = manager.result_bytes(job.job_id)

Queue lifecycle, fair-share math and cache-key derivation are documented
in ``docs/scheduler.md``.
"""

from __future__ import annotations

from repro.scheduler.cache import RlsResultCache, SignatureStore
from repro.scheduler.job import (
    JobRecord,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    derivation_signature,
)
from repro.scheduler.journal import (
    JobJournal,
    JournalState,
    global_fingerprint,
    merge_states,
    replay_events,
)
from repro.scheduler.policy import AdmissionPolicy, FairShareScheduler
from repro.scheduler.runner import JobFailure, JobOutcome, PortalJobRunner
from repro.scheduler.service import WorkloadManager

__all__ = [
    "AdmissionPolicy",
    "FairShareScheduler",
    "JobFailure",
    "JobJournal",
    "JobOutcome",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JournalState",
    "PortalJobRunner",
    "RlsResultCache",
    "SignatureStore",
    "TERMINAL_STATES",
    "WorkloadManager",
    "derivation_signature",
    "global_fingerprint",
    "merge_states",
    "replay_events",
]
