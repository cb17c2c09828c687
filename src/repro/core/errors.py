"""Exception hierarchy for the reproduction.

Every failure mode a caller may want to handle distinctly gets its own
class; all inherit :class:`ReproError` so library consumers can catch the
whole family at once.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all library errors."""


class VDLSyntaxError(ReproError):
    """Malformed Virtual Data Language input (Chimera front-end)."""


class WorkflowError(ReproError):
    """Structural workflow problem: cycles, unknown nodes, bad edges."""


class PlanningError(ReproError):
    """Pegasus could not map the abstract workflow onto the Grid."""


class InfeasibleWorkflowError(PlanningError):
    """Root input files of the workflow are not present anywhere in the RLS.

    Mirrors §3.2: "The workflow can only be executed if the input files for
    these components can be found to exist somewhere in the Grid."
    """


class ExecutionError(ReproError):
    """DAGMan/Condor-G execution failed beyond recovery (no rescue)."""


class ServiceError(ReproError):
    """An NVO service (cone search, SIA, compute service) rejected a call."""


class TransientServiceError(ServiceError):
    """A service call failed in a way that is worth retrying.

    Models the transient failure modes of 2003-era archive stacks: dropped
    connections, 5xx-style server hiccups, overload shedding.  The shared
    retry policy (:mod:`repro.resilience.retry`) retries exactly this
    family; everything else propagates immediately.
    """


class ServiceTimeoutError(TransientServiceError):
    """The service did not answer inside the transport timeout.

    A timeout is charged at the *full* timeout on the
    :class:`~repro.services.transport.CostMeter` — waiting for nothing is
    the most expensive way a call can fail.
    """


class MalformedResponseError(TransientServiceError):
    """The service answered, but the payload failed validation.

    Truncated VOTables and corrupt FITS blocks are transmission-level
    damage, not server state: a retry re-renders the response and is
    expected to succeed.
    """


class PermanentServiceError(ServiceError):
    """A service failure no retry can fix: bad request, unknown resource,
    archive decommissioned.  The retry layer must give up immediately."""


class TransportError(ReproError):
    """Data movement failure (fetch of a URL, stage-in/out of a file)."""


class TransientTransportError(TransportError):
    """A transfer failed for reasons a retry (or another replica) can fix:
    GridFTP connection reset, busy storage server, stage-in flake."""


class StaleReplicaError(TransportError):
    """An RLS mapping points at a PFN that no longer exists.

    The replica-failover path unregisters the stale entry on verification
    failure and tries the next replica; only when *no* replica verifies
    does this propagate.
    """


def is_transient(exc: BaseException) -> bool:
    """Is this failure worth retrying?

    The single classification point the retry layer, the portal boundary
    and the scheduler's requeue decision all share.  Unknown exception
    types are conservatively treated as permanent.
    """
    return isinstance(exc, (TransientServiceError, TransientTransportError))


class SchedulerError(ReproError):
    """The multi-tenant workload manager rejected or mishandled a job."""


class QueueFullError(SchedulerError):
    """Global backpressure: the submission queue is at its depth bound."""


class QuotaExceededError(SchedulerError):
    """Per-user admission control: the tenant is at its active-job quota."""


class UnknownJobError(SchedulerError):
    """A job id that the workload manager has never seen."""


class ResultGoneError(SchedulerError):
    """A completed job whose result bytes are no longer materialised
    anywhere (e.g. a restarted manager replayed it from the journal)."""
