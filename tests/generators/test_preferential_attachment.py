"""``preferential_attachment_edges`` against the sequential process.

The generator draws every arrival's picks with one ``rng.integers`` call
and resolves them without the endpoint pool; the per-vertex loop below
builds the pool in order, the way the process is defined.  Both must
give the same edges and leave the generator in the same state.
"""

import numpy as np
import pytest

from repro.constants import VERTEX_DTYPE
from repro.generators.powerlaw import preferential_attachment_edges
from repro.generators.smallworld import watts_strogatz_edges

SEEDS = (0, 1, 2)


def reference_edges(
    n: int, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The repeated-endpoint pool, one vertex at a time: edge e fills
    slots 2e and 2e + 1, and each arrival draws m slots below 2e."""
    if n <= m:
        src, dst = np.triu_indices(n, k=1)
        return src.astype(VERTEX_DTYPE), dst.astype(VERTEX_DTYPE)
    total_edges = (n - m - 1) * m + (m * (m + 1)) // 2
    src = np.empty(total_edges, dtype=VERTEX_DTYPE)
    dst = np.empty(total_edges, dtype=VERTEX_DTYPE)
    pool = np.empty(2 * total_edges, dtype=VERTEX_DTYPE)
    e = 0
    for v in range(1, m + 1):
        for u in range(v):
            src[e], dst[e] = v, u
            pool[2 * e], pool[2 * e + 1] = v, u
            e += 1
    for v in range(m + 1, n):
        picks = rng.integers(0, 2 * e, size=m)
        targets = pool[picks]
        src[e : e + m] = v
        dst[e : e + m] = targets
        pool[2 * e : 2 * (e + m) : 2] = v
        pool[2 * e + 1 : 2 * (e + m) : 2] = targets
        e += m
    return src[:e], dst[:e]


def assert_same_process(n, m, seed, before=None):
    """Both constructions on twin generators, after ``before(rng)``."""
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if before is not None:
        before(ours)
        before(theirs)
    got = preferential_attachment_edges(n, m, ours)
    src, dst = reference_edges(n, m, theirs)
    assert got.num_vertices == n
    assert got.src.dtype == got.dst.dtype == VERTEX_DTYPE
    np.testing.assert_array_equal(got.src, src)
    np.testing.assert_array_equal(got.dst, dst)
    assert ours.bit_generator.state == theirs.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "n,m",
    [
        (1, 1),  # clique fallbacks: n <= m
        (4, 8),
        (5, 5),
        (6, 5),  # n = m + 1: the seed clique only; an empty draw
        (2, 1),  # consumes no state
        (500, 1),
        (2000, 8),
        (1 << 14, 4),
    ],
)
def test_matches_sequential_process(n, m, seed):
    assert_same_process(n, m, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_hub_layer_after_ring_layer(seed):
    """``web_graph`` draws its hub layer from the stream the ring layer's
    rewiring left, which may hold a buffered 32-bit half."""
    n = 3000
    assert_same_process(
        n, 4, seed, before=lambda rng: watts_strogatz_edges(n, 8, 0.01, rng)
    )


@pytest.mark.parametrize("m", [1, 4])
def test_numpy_draws_array_bounds_like_scalar_calls(m):
    """The property the generator rests on: an array of bounds draws each
    element from the stream as a ``size=m`` call per bound would, on both
    sides of 2**32, where NumPy switches from 32-bit to 64-bit draws.  A
    NumPy that breaks this would silently change every BA and web graph."""
    highs = np.array([3, 2**32 - 1, 2**32, 2**32 + 5, 2**40, 7], dtype=np.int64)
    for seed in SEEDS:
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        ours.integers(0, 3)  # leave a buffered 32-bit half on both
        theirs.integers(0, 3)
        got = ours.integers(0, np.repeat(highs, m))
        want = np.concatenate([theirs.integers(0, int(h), size=m) for h in highs])
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state
