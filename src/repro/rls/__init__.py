"""Replica Location Service (Globus RLS / "Giggle") and storage sites.

Pegasus "uses services such as the Globus Replica Location Service" to map
logical file names to physical locations (§3.2).  The two-tier Giggle
design is reproduced: per-site Local Replica Catalogs (LRC) plus a Replica
Location Index (RLI) that knows *which site* holds a mapping, with the
combined facade :class:`ReplicaLocationService` the planner queries.

:class:`StorageSite` doubles as the actual byte store for the real
execution mode — transfer nodes move bytes between sites, and registered
PFNs resolve to real content.
"""

from repro.rls.rls import LocalReplicaCatalog, Replica, ReplicaLocationService
from repro.rls.site import StorageSite

__all__ = [
    "Replica",
    "LocalReplicaCatalog",
    "ReplicaLocationService",
    "StorageSite",
]
