"""Tests for incremental connectivity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine as engine
from repro.core.incremental import IncrementalConnectivity
from repro.errors import ConfigurationError
from repro.generators import uniform_random_graph
from repro.graph.builder import from_edge_array
from repro.unionfind import SequentialUnionFind


class TestBasics:
    def test_initial_state(self):
        inc = IncrementalConnectivity(5)
        assert inc.num_components == 5
        assert not inc.connected(0, 4)

    def test_add_edge_merges(self):
        inc = IncrementalConnectivity(4)
        assert inc.add_edge(0, 3)
        assert inc.connected(0, 3)
        assert inc.num_components == 3

    def test_duplicate_edge_no_merge(self):
        inc = IncrementalConnectivity(4)
        inc.add_edge(0, 1)
        assert not inc.add_edge(1, 0)
        assert inc.num_components == 3

    def test_self_loop_no_merge(self):
        inc = IncrementalConnectivity(3)
        assert not inc.add_edge(1, 1)
        assert inc.num_components == 3

    def test_transitivity(self):
        inc = IncrementalConnectivity(6)
        inc.add_edge(0, 1)
        inc.add_edge(2, 3)
        assert not inc.connected(0, 3)
        inc.add_edge(1, 2)
        assert inc.connected(0, 3)

    def test_find_compresses(self):
        inc = IncrementalConnectivity(8, compress_every=0)
        for i in range(7):
            inc.add_edge(i, i + 1)
        root = inc.find(7)
        assert root == inc.find(0)
        # After find, 7 points directly at the root.
        assert inc._pi[7] == root

    def test_labels_partition(self):
        inc = IncrementalConnectivity(6)
        inc.add_edge(0, 1)
        inc.add_edge(3, 4)
        labels = inc.labels()
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[2] != labels[0]

    def test_bounds_checked(self):
        inc = IncrementalConnectivity(3)
        with pytest.raises(ConfigurationError):
            inc.add_edge(0, 3)
        with pytest.raises(ConfigurationError):
            inc.find(-1)

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            IncrementalConnectivity(-1)
        with pytest.raises(ConfigurationError):
            IncrementalConnectivity(4, compress_every=-1)


class TestBulk:
    def test_add_edges_counts_merges(self):
        inc = IncrementalConnectivity(6)
        merged = inc.add_edges(np.array([0, 2, 0]), np.array([1, 3, 1]))
        assert merged == 2
        assert inc.num_components == 4

    def test_mixed_bulk_and_single(self):
        inc = IncrementalConnectivity(10)
        inc.add_edges(np.array([0, 1]), np.array([1, 2]))
        inc.add_edge(2, 3)
        inc.add_edges(np.array([5]), np.array([6]))
        assert inc.connected(0, 3)
        assert not inc.connected(0, 5)
        # Four merges total: {0,1},{1,2} bulk, {2,3} single, {5,6} bulk.
        assert inc.num_components == 10 - 4

    def test_rejects_mismatched_arrays(self):
        inc = IncrementalConnectivity(4)
        with pytest.raises(ConfigurationError):
            inc.add_edges(np.array([0]), np.array([1, 2]))

    def test_rejects_out_of_range_bulk(self):
        inc = IncrementalConnectivity(4)
        with pytest.raises(ConfigurationError):
            inc.add_edges(np.array([0]), np.array([9]))

    def test_rejects_non_integer_ids(self):
        # A cast would truncate 1.7 -> 1 and 2.2 -> 2 and merge them.
        inc = IncrementalConnectivity(4)
        with pytest.raises(ConfigurationError, match="non-integer"):
            inc.add_edges([1.7], [2.2])
        assert not inc.connected(1, 2)
        assert inc.num_components == 4

    def test_empty_batch_of_any_dtype_accepted(self):
        inc = IncrementalConnectivity(4)
        assert inc.add_edges(np.asarray([]), np.asarray([])) == 0
        assert inc.num_components == 4


class TestWriteCost:
    """A bulk insertion allocates O(batch), never O(n)."""

    def test_add_edges_allocates_o_batch(self):
        n = 1 << 20
        inc = IncrementalConnectivity(n, compress_every=0)
        rng = np.random.default_rng(0)
        inc.add_edges(rng.integers(0, n, 32), rng.integers(0, n, 32))
        src, dst = rng.integers(0, n, 32), rng.integers(0, n, 32)
        tracemalloc.start()
        try:
            inc.add_edges(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # One n-length temporary would be 8 MiB.
        assert peak < 64 * 1024


class TestCompression:
    def test_periodic_compression_bounds_depth(self):
        inc = IncrementalConnectivity(100, compress_every=10)
        for i in range(99):
            inc.add_edge(i, i + 1)
        from repro.unionfind import ParentArray

        assert ParentArray(inc._pi).max_depth() <= 12

    def test_compress_every_zero_still_correct(self):
        inc = IncrementalConnectivity(50, compress_every=0)
        for i in range(49):
            inc.add_edge(i, i + 1)
        assert inc.num_components == 1


class TestLazySelfCompression:
    """The documented ``compress_every=0`` query paths stay exact."""

    def test_deep_chain_queries_exact_without_compression(self):
        n = 30
        inc = IncrementalConnectivity(n, compress_every=0)
        for i in range(n - 1, 0, -1):
            inc.add_edge(i, i - 1)
        # Scalar find compresses exactly the walked chain...
        root = inc.find(n - 1)
        assert root == 0
        assert inc._pi[n - 1] == 0
        # ...and labels() still full-compresses.
        assert np.array_equal(inc.labels(), np.zeros(n, dtype=inc._pi.dtype))

    def test_lazy_matches_eager_labels(self):
        rng = np.random.default_rng(23)
        n = 80
        lazy = IncrementalConnectivity(n, compress_every=0)
        eager = IncrementalConnectivity(n, compress_every=8)
        src, dst = rng.integers(0, n, 120), rng.integers(0, n, 120)
        lazy.add_edges(src, dst)
        eager.add_edges(src, dst)
        assert np.array_equal(lazy.labels(), eager.labels())


class TestFromLabels:
    def test_adopts_solved_labeling(self):
        import repro.engine as engine

        g = uniform_random_graph(400, edge_factor=3, seed=4)
        result = engine.run("afforest", g)
        inc = IncrementalConnectivity.from_labels(result.labels)
        assert inc.num_components == result.num_components
        assert np.array_equal(inc.labels(), result.labels)

    def test_copies_input(self):
        labels = np.array([0, 0, 2, 2])
        inc = IncrementalConnectivity.from_labels(labels)
        inc.add_edge(1, 3)
        assert labels.tolist() == [0, 0, 2, 2]

    def test_stream_continues_from_adopted_state(self):
        labels = np.array([0, 0, 2, 2, 4])
        inc = IncrementalConnectivity.from_labels(labels)
        assert inc.num_components == 3
        assert inc.add_edge(1, 2)
        assert inc.connected(0, 3)
        assert inc.num_components == 2

    def test_rejects_invalid_parent_array(self):
        from repro.errors import InvariantViolationError

        with pytest.raises(InvariantViolationError):
            IncrementalConnectivity.from_labels(np.array([1, 2, 0]))


class TestAgainstOracle:
    @given(
        st.integers(2, 25),
        st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), max_size=60),
        st.sampled_from([0, 1, 7]),
    )
    @settings(max_examples=60, deadline=None)
    def test_streaming_matches_union_find(self, n, edges, compress_every):
        edges = [(u % n, v % n) for u, v in edges]
        inc = IncrementalConnectivity(n, compress_every=compress_every)
        uf = SequentialUnionFind(n)
        for u, v in edges:
            merged_inc = inc.add_edge(u, v)
            merged_uf = uf.union(u, v)
            assert merged_inc == merged_uf
            assert inc.num_components == uf.num_sets
        for u in range(n):
            for v in range(u + 1, n):
                assert inc.connected(u, v) == uf.connected(u, v)


@st.composite
def _bulk_stream(draw):
    """``(n, base edges, insert batches)`` for the bulk oracle test.

    Every non-empty batch repeats its first edge and adds a self-loop,
    and a fan-in from one hub makes several edges race to hook the same
    root in one ``link_batch`` round.
    """
    n = draw(st.integers(2, 24))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex)
    base = draw(st.lists(edge, max_size=20))
    batches = []
    for _ in range(draw(st.integers(1, 6))):
        batch = draw(st.lists(edge, max_size=10))
        hub = draw(vertex)
        batch += [(hub, leaf) for leaf in draw(st.lists(vertex, max_size=5))]
        if batch:
            batch += [batch[0], (batch[0][1], batch[0][1])]
        batches.append(batch)
    return n, base, batches


def _arrays(edges):
    pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


class TestBulkAgainstOracle:
    @given(
        _bulk_stream(),
        st.sampled_from([0, 1, 7]),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_bulk_merges_match_union_find(self, stream, compress_every, solved):
        n, base, batches = stream
        uf = SequentialUnionFind(n)
        if solved:
            # Start from the labels of a solved graph, as the service does.
            for u, v in base:
                uf.union(u, v)
            graph = from_edge_array(*_arrays(base), num_vertices=n)
            inc = IncrementalConnectivity.from_labels(
                engine.run("afforest", graph).labels,
                compress_every=compress_every,
            )
        else:
            inc = IncrementalConnectivity(n, compress_every=compress_every)
        assert inc.num_components == uf.num_sets
        for batch in batches:
            expected = sum(uf.union(u, v) for u, v in batch)
            assert inc.add_edges(*_arrays(batch)) == expected
            assert inc.num_components == uf.num_sets
        for u in range(n):
            assert inc.connected(u, 0) == uf.connected(u, 0)
