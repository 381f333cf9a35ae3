"""Unit tests for the link primitive (all three forms)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.core.compress import compress_all
from repro.core.link import (
    IDENTITY_BLOCK,
    LinkCounters,
    is_identity,
    is_one_flat_tree,
    link,
    link_batch,
    link_kernel,
    link_out,
)
from repro.errors import ConvergenceError
from repro.parallel import SimulatedMachine
from repro.unionfind import ParentArray


def fresh(n):
    return np.arange(n, dtype=VERTEX_DTYPE)


def same_tree(pi, u, v):
    return ParentArray(pi).find_root(u) == ParentArray(pi).find_root(v)


class TestScalarLink:
    def test_merges_singletons(self):
        pi = fresh(4)
        assert link(pi, 1, 3)
        assert same_tree(pi, 1, 3)
        assert ParentArray(pi).holds_invariant1()

    def test_idempotent(self):
        pi = fresh(4)
        link(pi, 1, 3)
        assert not link(pi, 1, 3)  # already same tree
        assert not link(pi, 3, 1)

    def test_hooks_higher_under_lower(self):
        pi = fresh(5)
        link(pi, 2, 4)
        assert pi[4] == 2

    def test_merges_deep_chains(self):
        # Two chains: 0<-1<-2 and 3<-4<-5 (pi[x] points down-index).
        pi = np.array([0, 0, 1, 3, 3, 4], dtype=VERTEX_DTYPE)
        link(pi, 2, 5)
        assert same_tree(pi, 0, 3)
        assert ParentArray(pi).holds_invariant1()
        assert not ParentArray(pi).has_cycle()

    def test_self_edge_is_noop(self):
        pi = fresh(3)
        assert not link(pi, 1, 1)
        assert pi.tolist() == [0, 1, 2]

    def test_counters(self):
        pi = fresh(4)
        c = LinkCounters()
        link(pi, 0, 1, c)
        link(pi, 0, 1, c)  # no-op edge: still one local iteration
        assert c.edges_processed == 2
        assert c.hooks == 1
        assert c.mean_iterations >= 1.0
        assert sum(c.iterations_histogram.values()) == 2

    def test_detects_corruption(self):
        # A 3-cycle in pi: the climb loop revisits the same states forever,
        # so the safety cap must fire instead of hanging.
        pi = np.array([1, 2, 0], dtype=VERTEX_DTYPE)
        with pytest.raises(ConvergenceError):
            link(pi, 0, 1)

    def test_transitive_merging(self):
        pi = fresh(6)
        link(pi, 0, 1)
        link(pi, 2, 3)
        link(pi, 1, 2)
        for v in range(4):
            assert same_tree(pi, 0, v)
        assert not same_tree(pi, 0, 4)


class TestBatchLink:
    def test_matches_scalar_result(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(0, 80))
            src = rng.integers(0, n, size=m).astype(VERTEX_DTYPE)
            dst = rng.integers(0, n, size=m).astype(VERTEX_DTYPE)
            pi_batch = fresh(n)
            link_batch(pi_batch, src, dst)
            pi_scalar = fresh(n)
            for u, v in zip(src.tolist(), dst.tolist()):
                link(pi_scalar, u, v)
            assert np.array_equal(
                ParentArray(pi_batch).labels(),
                ParentArray(pi_scalar).labels(),
            )

    def test_empty_batch(self):
        pi = fresh(5)
        assert link_batch(pi, np.empty(0, dtype=VERTEX_DTYPE),
                          np.empty(0, dtype=VERTEX_DTYPE)) == 0
        assert pi.tolist() == [0, 1, 2, 3, 4]

    def test_preserves_invariant1(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = 30
            src = rng.integers(0, n, size=60).astype(VERTEX_DTYPE)
            dst = rng.integers(0, n, size=60).astype(VERTEX_DTYPE)
            pi = fresh(n)
            link_batch(pi, src, dst)
            p = ParentArray(pi)
            assert p.holds_invariant1()
            assert not p.has_cycle()

    def test_conflicting_hooks_resolve_to_min(self):
        # Edges (0,9) and (1,9): both want to hook 9; min label wins first,
        # the loser re-links and all three end in one tree.
        pi = fresh(10)
        link_batch(
            pi,
            np.array([0, 1], dtype=VERTEX_DTYPE),
            np.array([9, 9], dtype=VERTEX_DTYPE),
        )
        labels = ParentArray(pi).labels()
        assert labels[0] == labels[1] == labels[9] == 0

    def test_returns_round_count(self):
        pi = fresh(4)
        rounds = link_batch(
            pi, np.array([0], dtype=VERTEX_DTYPE), np.array([1], dtype=VERTEX_DTYPE)
        )
        assert rounds >= 1


class TestLinkKernel:
    def run_machine(self, n, edges, workers=3, interleave="roundrobin", seed=0):
        pi = fresh(n)
        src = np.asarray([e[0] for e in edges], dtype=VERTEX_DTYPE)
        dst = np.asarray([e[1] for e in edges], dtype=VERTEX_DTYPE)
        m = SimulatedMachine(workers, schedule="cyclic", interleave=interleave, seed=seed)
        m.parallel_for(len(edges), link_kernel, pi, src, dst)
        return pi

    def test_concurrent_links_converge(self):
        edges = [(0, 1), (1, 2), (2, 3), (4, 5), (3, 4)]
        pi = self.run_machine(6, edges)
        labels = ParentArray(pi).labels()
        assert len(set(labels.tolist())) == 1

    def test_concurrent_equivalent_to_scalar(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            n = 25
            edges = [
                (int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(40)
            ]
            pi_con = self.run_machine(n, edges, workers=5,
                                      interleave="random", seed=seed)
            pi_seq = fresh(n)
            for u, v in edges:
                link(pi_seq, u, v)
            assert np.array_equal(
                ParentArray(pi_con).labels(), ParentArray(pi_seq).labels()
            )
            assert ParentArray(pi_con).holds_invariant1()
            assert not ParentArray(pi_con).has_cycle()

    def test_contention_produces_cas_failures(self):
        # A star of edges all hooking the same high vertex from different
        # low roots: workers race on the root's CAS.
        n = 32
        edges = [(i, n - 1) for i in range(8)]
        pi = fresh(n)
        src = np.asarray([e[0] for e in edges], dtype=VERTEX_DTYPE)
        dst = np.asarray([e[1] for e in edges], dtype=VERTEX_DTYPE)
        m = SimulatedMachine(8, schedule="cyclic")
        ph = m.parallel_for(len(edges), link_kernel, pi, src, dst)
        labels = ParentArray(pi).labels()
        assert len({int(labels[i]) for i in list(range(8)) + [n - 1]}) == 1
        assert ph.cas_attempts >= 1


def reference_link_batch(pi, src, dst):
    """The batch link loop in its plain form (boolean masks, ``any()``):
    the reference :func:`link_batch` and :func:`link_out` must match
    round for round."""
    if src.shape[0] == 0:
        return 0
    a = pi[src]
    b = pi[dst]
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    rounds = 0
    while True:
        active = a != b
        if not active.any():
            return rounds
        rounds += 1
        if rounds > cap:
            raise ConvergenceError("reference loop exceeded its cap")
        a = a[active]
        b = b[active]
        h = np.maximum(a, b)
        l = np.minimum(a, b)
        root = pi[h] == h
        if root.any():
            np.minimum.at(pi, h[root], l[root])
        a = pi[pi[h]]
        b = pi[l]


@st.composite
def parent_arrays(draw):
    """π of up to 300 vertices at int32 or int64: the identity, or the
    result of random earlier batch links, sometimes compressed flat."""
    n = draw(st.integers(0, 300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    pi = np.arange(n, dtype=dtype)
    if n and draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        for _ in range(draw(st.integers(1, 3))):
            m = int(rng.integers(0, 2 * n))
            src, dst = rng.integers(0, n, size=(2, m))
            reference_link_batch(pi, src, dst)
        if draw(st.booleans()):
            compress_all(pi)
    return pi


@st.composite
def out_edges(draw, n):
    """One out-edge per vertex, ``nbr[v] == v`` for none: random up and
    down pointers in no particular order, with self entries, fan-in to
    one hub and mutual pairs mixed in at drawn rates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = np.arange(n)
    nbr = rng.integers(0, max(n, 1), size=n)
    nbr[rng.random(n) < draw(st.floats(0.0, 1.0))] = int(
        rng.integers(0, max(n, 1))
    )  # fan-in to one hub
    pairs = rng.permutation(n)
    pairs = pairs[: 2 * int(draw(st.floats(0.0, 0.5)) * n)]
    nbr[pairs[0::2]] = pairs[1::2]
    nbr[pairs[1::2]] = pairs[0::2]
    own = rng.random(n) < draw(st.floats(0.0, 1.0))
    nbr[own] = v[own]
    return nbr


class TestLinkAgainstReference:
    """``link_batch`` and ``link_out`` leave π and the round count exactly
    as the plain loop does, on identity and linked π alike."""

    @given(pi=parent_arrays(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_link_out_matches_loop(self, pi, data):
        n = int(pi.shape[0])
        nbr = data.draw(out_edges(n), label="nbr")
        ref = pi.copy()
        ref_rounds = reference_link_batch(ref, np.arange(n), nbr)
        rounds = link_out(pi, nbr)
        assert rounds == ref_rounds
        assert pi.dtype == ref.dtype
        assert np.array_equal(pi, ref)

    @given(pi=parent_arrays(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_link_batch_matches_loop(self, pi, data):
        n = int(pi.shape[0])
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 3 * n + 1))
        src, dst = rng.integers(0, max(n, 1), size=(2, m))
        loops = rng.random(m) < data.draw(st.floats(0.0, 0.5))
        dst[loops] = src[loops]
        twice = int(rng.integers(0, m + 1))  # duplicate a prefix
        src = np.concatenate((src, src[:twice]))
        dst = np.concatenate((dst, dst[:twice]))
        ref = pi.copy()
        ref_rounds = reference_link_batch(ref, src, dst)
        assert link_batch(pi, src, dst) == ref_rounds
        assert np.array_equal(pi, ref)


class TestIsIdentity:
    """``is_identity`` reads π block by block; it must agree with a
    whole-array comparison against ``arange(n)`` wherever a wrong slot
    sits: first, last, or either side of a block boundary."""

    SIZES = [0, 1, 2, IDENTITY_BLOCK - 1, IDENTITY_BLOCK, 2 * IDENTITY_BLOCK + 5]

    @staticmethod
    def expected(pi):
        return bool(np.array_equal(pi, np.arange(pi.shape[0])))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", SIZES)
    def test_identity(self, n, dtype):
        pi = np.arange(n, dtype=dtype)
        assert is_identity(pi) is True
        assert np.array_equal(pi, np.arange(n))  # read-only

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", SIZES[1:])
    def test_one_wrong_slot(self, n, dtype):
        positions = {0, n - 1}
        for edge in range(IDENTITY_BLOCK, n, IDENTITY_BLOCK):
            positions |= {edge - 1, edge}
        for pos in sorted(positions):
            for wrong in (n, pos - 1 if pos else 1):
                pi = np.arange(n, dtype=dtype)
                pi[pos] = wrong
                assert self.expected(pi) is False
                assert is_identity(pi) is False, (pos, wrong)

    @given(
        n=st.integers(0, 3 * IDENTITY_BLOCK),
        dtype=st.sampled_from([np.int32, np.int64]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_whole_array_comparison(self, n, dtype, data):
        pi = np.arange(n, dtype=dtype)
        if n:
            k = data.draw(st.integers(0, 3), label="wrong slots")
            for pos in data.draw(
                st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
                label="positions",
            ):
                pi[pos] = data.draw(st.integers(0, n - 1), label="value")
        assert is_identity(pi) == self.expected(pi)


class TestIsOneFlatTree:
    """``is_one_flat_tree`` is ``not pi.any()``: it reads the last slot
    first but must still find a nonzero slot anywhere else."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [0, 1, 2, 7, IDENTITY_BLOCK + 3])
    def test_all_zero(self, n, dtype):
        assert is_one_flat_tree(np.zeros(n, dtype=dtype)) is True

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("n", [2, 7, IDENTITY_BLOCK + 3])
    def test_one_nonzero_slot(self, n, dtype):
        for pos in (1, n // 2, n - 1):
            pi = np.zeros(n, dtype=dtype)
            pi[pos] = 1
            assert is_one_flat_tree(pi) is False, pos
        assert is_one_flat_tree(np.arange(n, dtype=dtype)) is False
