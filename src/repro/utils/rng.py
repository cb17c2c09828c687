"""Deterministic random-number plumbing.

Every stochastic component of the reproduction (sky synthesis, replica
selection, site selection, failure injection, transport jitter) derives its
generator from a *root seed* and a *stream label*.  This makes campaign runs
bit-reproducible while keeping the streams statistically independent —
NumPy's ``SeedSequence.spawn`` machinery underneath.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Root seed of the demonstration: the sky, every planner/simulator/fault
#: stream and the load schedules derive from it.  The one declared default
#: of every ``seed`` parameter; changing it re-rolls everything.
DEMO_SEED = 2003


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a 32-bit child seed from ``root_seed`` and a label path.

    The label path is hashed with CRC-32 (stable across processes and Python
    versions, unlike :func:`hash`), then mixed into a ``SeedSequence``.
    """
    text = "/".join(str(label) for label in labels)
    mixed = zlib.crc32(text.encode("utf-8"))
    seq = np.random.SeedSequence([root_seed & 0xFFFFFFFF, mixed])
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def derive_rng(root_seed: int, *labels: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for the given label path.

    Examples
    --------
    >>> a = derive_rng(7, "sky", "abell-1656")
    >>> b = derive_rng(7, "sky", "abell-1656")
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.default_rng(derive_seed(root_seed, *labels))
