"""1-D ownership maps for the distributed backend.

:func:`block_bounds` cuts ``[0, total)`` into even contiguous blocks (the
vertex-ownership map of the delta-exchange supersteps); :func:`hash_owners`
gives each flat edge position a pseudo-random rank (the ``hash`` edge
sharding mode).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


def _check(num_ranks: int) -> None:
    if num_ranks < 1:
        raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")


def block_bounds(total: int, num_ranks: int) -> np.ndarray:
    """Even 1-D block boundaries: ``num_ranks + 1`` cut points over
    ``[0, total)`` — the vertex-ownership map of the delta-exchange
    supersteps."""
    _check(num_ranks)
    return np.linspace(0, total, num_ranks + 1).astype(np.int64)


def hash_owners(
    total: int, num_ranks: int, *, seed: int = 0
) -> np.ndarray:
    """Pseudo-random owner rank per flat position (hash of the id), the
    ``DistributedBackend``'s ``hash`` sharding mode — one seeded draw, so
    repeated calls agree on which rank holds which edge."""
    _check(num_ranks)
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_ranks, size=total)
