"""Unit tests for the compress primitive (all three forms)."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.core.compress import (
    COMPRESS_BLOCK,
    compress,
    compress_all,
    compress_kernel,
)
from repro.errors import ConvergenceError
from repro.parallel import SimulatedMachine
from repro.unionfind import ParentArray

# ``repro.core.compress`` the attribute is the scalar function; the module
# (whose COMPRESS_BLOCK compress_all reads) comes from the import system.
compress_module = importlib.import_module("repro.core.compress")
SMALL_BLOCKS = [1, 2, 3, 7, 64]


def chain(n):
    """pi = [0, 0, 1, 2, ...]: one tree of depth n-1."""
    pi = np.arange(n, dtype=VERTEX_DTYPE)
    pi[1:] = np.arange(n - 1, dtype=VERTEX_DTYPE)
    return pi


class TestScalarCompress:
    def test_flattens_single_vertex_path(self):
        pi = chain(5)
        steps = compress(pi, 4)
        assert pi[4] == 0
        assert steps == 3

    def test_noop_on_root(self):
        pi = np.arange(3, dtype=VERTEX_DTYPE)
        assert compress(pi, 0) == 0

    def test_noop_on_depth_one(self):
        pi = np.array([0, 0, 0], dtype=VERTEX_DTYPE)
        assert compress(pi, 2) == 0

    def test_preserves_connectivity(self):
        pi = chain(6)
        before = ParentArray(pi).labels()
        compress(pi, 5)
        assert np.array_equal(ParentArray(pi).labels(), before)

    def test_applied_to_all_gives_flat_forest(self):
        pi = chain(8)
        for v in range(8):
            compress(pi, v)
        assert ParentArray(pi).is_flat()


class TestCompressAll:
    def test_flattens_everything(self):
        pi = chain(16)
        passes = compress_all(pi)
        assert ParentArray(pi).is_flat()
        assert np.all(pi == 0)
        # Pointer doubling: log2(15) ~ 4 passes.
        assert passes <= 5

    def test_idempotent(self):
        pi = chain(8)
        compress_all(pi)
        snapshot = pi.copy()
        assert compress_all(pi) == 0
        assert np.array_equal(pi, snapshot)

    def test_multiple_trees(self):
        pi = np.array([0, 0, 1, 3, 3, 4], dtype=VERTEX_DTYPE)
        compress_all(pi)
        assert pi.tolist() == [0, 0, 0, 3, 3, 3]

    def test_empty(self):
        pi = np.empty(0, dtype=VERTEX_DTYPE)
        assert compress_all(pi) == 0

    def test_preserves_labels(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = 20
            # Random valid downward-pointing forest.
            pi = np.array(
                [int(rng.integers(0, v + 1)) for v in range(n)],
                dtype=VERTEX_DTYPE,
            )
            before = ParentArray(pi).labels()
            compress_all(pi)
            assert np.array_equal(ParentArray(pi).labels(), before)
            assert ParentArray(pi).is_flat()


class TestCompressKernel:
    @pytest.mark.parametrize("interleave", ["roundrobin", "random", "sequential"])
    def test_concurrent_compress_flattens(self, interleave):
        pi = chain(12)
        before = ParentArray(pi).labels()
        m = SimulatedMachine(4, schedule="cyclic", interleave=interleave, seed=1)
        m.parallel_for(12, compress_kernel, pi)
        assert ParentArray(pi).is_flat()
        assert np.array_equal(ParentArray(pi).labels(), before)

    def test_concurrent_compress_random_forests(self):
        rng = np.random.default_rng(3)
        for seed in range(8):
            n = 24
            pi = np.array(
                [int(rng.integers(0, v + 1)) for v in range(n)],
                dtype=VERTEX_DTYPE,
            )
            before = ParentArray(pi).labels()
            m = SimulatedMachine(
                5, schedule="cyclic", interleave="random", seed=seed
            )
            m.parallel_for(n, compress_kernel, pi)
            assert ParentArray(pi).is_flat()
            assert np.array_equal(ParentArray(pi).labels(), before)

    def test_counts_reads_and_writes(self):
        pi = chain(4)
        m = SimulatedMachine(1)
        ph = m.parallel_for(4, compress_kernel, pi)
        assert ph.reads > 0
        assert ph.writes > 0


def doubling(pi):
    """Reference whole-array pointer doubling: ``pi <- pi[pi]`` until
    nothing changes; returns the number of changing passes."""
    passes = 0
    while True:
        nxt = pi[pi]
        if np.array_equal(nxt, pi):
            return passes
        pi[:] = nxt
        passes += 1


BLOCK_SIZES = st.integers(0, 300)
#: sizes up to 3 blocks + 5, mostly above one block and at the cut points
DEFAULT_SIZES = st.one_of(
    st.integers(0, 3 * COMPRESS_BLOCK + 5),
    st.integers(COMPRESS_BLOCK, 3 * COMPRESS_BLOCK + 5),
    st.sampled_from(
        [COMPRESS_BLOCK, COMPRESS_BLOCK + 1, 2 * COMPRESS_BLOCK, 3 * COMPRESS_BLOCK + 5],
    ),
)


@st.composite
def forests(draw, sizes):
    """Random parent forests of ``sizes`` vertices at int32 or int64.

    Each vertex is a root, points at ``v - 1`` (deep chains) or points at
    a random vertex below it, which keeps Invariant 1.  Some draws then
    relabel the forest through a random permutation, so parents point up
    and down across blocks; some pre-compress it, so it is already flat.
    """
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chain = draw(st.floats(0.0, 1.0))
    root = draw(st.floats(0.0, 0.5))
    v = np.arange(n)
    below = (rng.random(n) * (v + 1)).astype(np.int64)
    pi = np.where(rng.random(n) < chain, np.maximum(v - 1, 0), below)
    pi = np.where(rng.random(n) < root, v, pi)
    if draw(st.booleans()):
        perm = rng.permutation(n)
        upward = np.empty_like(pi)
        upward[perm] = perm[pi]
        pi = upward
    if draw(st.booleans()):
        doubling(pi)
    return pi.astype(draw(st.sampled_from([np.int32, np.int64])))


def check_against_doubling(pi, block, use_scratch):
    """In-order compress equals doubling's fixpoint; its count is 0 iff
    π was flat, doubling's pass count when one block covers π, and never
    more than it under Invariant 1 (the largest block count, not a sum)."""
    n = int(pi.shape[0])
    was_flat = np.array_equal(pi[pi], pi)
    invariant1 = bool(np.all(pi <= np.arange(n)))
    ref = pi.copy()
    ref_passes = doubling(ref)
    scratch = np.empty(min(n, block), dtype=pi.dtype) if use_scratch else None
    passes = compress_all(pi, scratch)
    assert pi.dtype == ref.dtype
    assert np.array_equal(pi, ref)
    assert (passes == 0) == was_flat
    if n <= block:
        assert passes == ref_passes
    if invariant1:
        assert passes <= ref_passes


class TestInOrderCompress:
    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @given(pi=forests(BLOCK_SIZES), use_scratch=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_small_blocks_match_doubling(self, block, pi, use_scratch):
        with mock.patch.object(compress_module, "COMPRESS_BLOCK", block):
            check_against_doubling(pi, block, use_scratch)

    @given(pi=forests(DEFAULT_SIZES), use_scratch=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_default_block_matches_doubling(self, pi, use_scratch):
        check_against_doubling(pi, COMPRESS_BLOCK, use_scratch)

    @pytest.mark.parametrize("block", SMALL_BLOCKS)
    @given(pi=forests(BLOCK_SIZES), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cross_block_cycle_is_bounded(self, block, pi, data):
        n = int(pi.shape[0])
        assume(n >= 2)
        cycle = data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=2, max_size=6, unique=True
            ),
            label="cycle",
        )
        assume(len({v // block for v in cycle}) > 1)
        pi[cycle] = np.roll(cycle, -1)
        cap = ITERATION_CAP_FACTOR * n + ITERATION_CAP_SLACK
        with mock.patch.object(compress_module, "COMPRESS_BLOCK", block):
            try:
                passes = compress_all(pi)
            except ConvergenceError:
                return
        assert passes <= cap
        assert np.array_equal(pi[pi], pi)
