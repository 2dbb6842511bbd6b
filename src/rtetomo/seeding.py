"""Named, order-independent random streams.

Every stochastic consumer (boundary noise, verification samples, ...) pulls
its own counter-based generator keyed by a string name, so adding a new
consumer or reordering calls never shifts the numbers another consumer sees.
"""

import hashlib

import numpy as np

from .errors import UsageError


def stream(seed, name):
    """Return a ``numpy.random.Generator`` for the consumer ``name``.

    The generator is a Philox stream whose spawn key is derived from a
    sha256 of the name, combined with the run-level ``seed`` as entropy.
    Identical (seed, name) pairs always reproduce the same sequence on any
    platform and for any number of worker threads.
    """
    if not name:
        raise UsageError("stream name must be a non-empty string")
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    key = tuple(int(k) for k in np.frombuffer(digest[:16], dtype=np.uint32))
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(seq))
