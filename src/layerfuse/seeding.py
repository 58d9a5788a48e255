"""Per-component random streams derived from a single run seed."""

import numpy as np

STREAM_GATE = 1
STREAM_HEAD = 2
STREAM_BATCHES = 3
STREAM_TASK = 4
STREAM_CHECK = 5


def rng_stream(seed, *key):
    """Deterministic generator for a (seed, component-key) pair.

    Components that derive their generators through distinct keys can be
    added or removed without shifting each other's draws.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng([int(seed), *(int(k) for k in key)])
