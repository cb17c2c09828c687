"""Shared low-level utilities: identifiers, seeded RNG, event logging, units.

Everything in :mod:`repro` that needs randomness derives it from
:func:`repro.utils.rng.derive_rng` so that whole campaign runs are
reproducible from a single integer seed.
"""

from repro.utils.events import Event, EventLog
from repro.utils.ids import RequestId, new_request_id, sequential_namer
from repro.utils.rng import derive_rng, derive_seed
from repro.utils.units import GB, KB, MB, format_bytes

__all__ = [
    "Event",
    "EventLog",
    "RequestId",
    "new_request_id",
    "sequential_namer",
    "derive_rng",
    "derive_seed",
    "KB",
    "MB",
    "GB",
    "format_bytes",
]
