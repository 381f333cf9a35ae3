"""Property-based tests of the graph substrate itself."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_list
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph
from repro.graph.validate import validate_graph
from repro.nputil import segment_ranges


@st.composite
def edge_data(draw, max_n=40, max_edges=80):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return n, edges


BUILD_FLAGS = ("symmetrize", "dedup", "drop_self_loops", "sort_neighbors")


@st.composite
def edge_records(draw):
    """Edge records over a vertex count that may add isolated vertices
    above the largest id.  Either free records (ids come from a few
    vertices, so self loops and duplicates are common), or distinct
    undirected pairs plus exactly zero or one self loop or duplicate: the
    two sides of the builder's skips of the loop filter and the dedup
    compaction."""
    n = draw(st.integers(0, 12))
    ids = st.integers(0, max(n - 1, 0))
    kind = draw(st.sampled_from(["free", "simple", "one-loop", "one-dup"]))
    if kind == "free" or n < 2:
        m = draw(st.integers(0, 30)) if n else 0
        src = draw(st.lists(ids, min_size=m, max_size=m))
        dst = draw(st.lists(ids, min_size=m, max_size=m))
        pairs = list(zip(src, dst))
    else:
        pairs = draw(
            st.lists(
                st.tuples(ids, ids).filter(lambda e: e[0] != e[1]),
                unique_by=frozenset,
                max_size=20,
            )
        )
        if kind == "one-loop":
            v = draw(ids)
            pairs.insert(draw(st.integers(0, len(pairs))), (v, v))
        elif kind == "one-dup" and pairs:
            u, v = draw(st.sampled_from(pairs))
            again = draw(st.sampled_from([(u, v), (v, u)]))
            pairs.insert(draw(st.integers(0, len(pairs))), again)
    tail = draw(st.integers(0, 3))
    src = np.asarray([u for u, _ in pairs], np.int64)
    dst = np.asarray([v for _, v in pairs], np.int64)
    return EdgeList(n + tail, src, dst)


def three_sort_build_csr(
    el, *, symmetrize, dedup, drop_self_loops, sort_neighbors
):
    """The assembly ``build_csr`` replaced: dedup by ``np.unique`` plus a
    sort of the first occurrences, then a ``lexsort`` (or a stable sort by
    row when neighbours keep input order)."""
    n, src, dst = el.num_vertices, el.src, el.dst
    if drop_self_loops:
        keep = src != dst
        src, dst = src[keep], dst[keep]
    if symmetrize:
        mirror = src != dst  # self loops stay single
        src, dst = (
            np.concatenate([src, dst[mirror]]),
            np.concatenate([dst, src[mirror]]),
        )
    if dedup and src.size:
        _, first = np.unique(src * (n or 1) + dst, return_index=True)
        first.sort()
        src, dst = src[first], dst[first]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    if sort_neighbors:
        order = np.lexsort((dst, src))
    else:
        order = np.argsort(src, kind="stable")
    return indptr, dst[order]


class TestBuilderProperties:
    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_built_graph_always_validates(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        validate_graph(g, require_sorted=True)

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_degree_sum_is_twice_edges(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        assert int(np.asarray(g.degree()).sum()) == 2 * g.num_edges

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_edge_order_does_not_matter(self, case):
        n, edges = case
        g1 = from_edge_list(edges, num_vertices=n)
        g2 = from_edge_list(list(reversed(edges)), num_vertices=n)
        assert g1 == g2

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_orientation_does_not_matter(self, case):
        n, edges = case
        g1 = from_edge_list(edges, num_vertices=n)
        g2 = from_edge_list([(v, u) for u, v in edges], num_vertices=n)
        assert g1 == g2

    @given(edge_data())
    @settings(max_examples=60, deadline=None)
    def test_rebuild_from_edge_array_roundtrips(self, case):
        n, edges = case
        g = from_edge_list(edges, num_vertices=n)
        src, dst = g.undirected_edge_array()
        rebuilt = from_edge_list(
            list(zip(src.tolist(), dst.tolist())), num_vertices=n
        )
        assert rebuilt == g

    @given(edge_records())
    @settings(max_examples=150, deadline=None)
    def test_matches_three_sort_reference(self, el):
        for flags in itertools.product((False, True), repeat=4):
            kwargs = dict(zip(BUILD_FLAGS, flags))
            g = build_csr(el, **kwargs)
            indptr, indices = three_sort_build_csr(el, **kwargs)
            assert g.indptr.dtype == g.indices.dtype == np.int64
            assert np.array_equal(g.indptr, indptr), kwargs
            assert np.array_equal(g.indices, indices), kwargs
            CSRGraph(g.indptr, g.indices)  # validates the CSR invariants


class TestEdgeListProperties:
    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_symmetrize_then_canonical_halves(self, case):
        n, edges = case
        el = EdgeList(
            n,
            np.asarray([e[0] for e in edges], dtype=np.int64),
            np.asarray([e[1] for e in edges], dtype=np.int64),
        ).without_self_loops()
        sym = el.symmetrized()
        assert sym.num_edges == 2 * el.num_edges

    @given(edge_data())
    @settings(max_examples=100, deadline=None)
    def test_dedup_idempotent(self, case):
        n, edges = case
        el = EdgeList(
            n,
            np.asarray([e[0] for e in edges], dtype=np.int64),
            np.asarray([e[1] for e in edges], dtype=np.int64),
        )
        once = el.deduplicated()
        twice = once.deduplicated()
        assert once.as_pairs() == twice.as_pairs()


class TestSegmentRangesProperties:
    @given(st.lists(st.integers(0, 10), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_python_reference(self, counts):
        arr = np.asarray(counts, dtype=np.int64)
        expected = [i for c in counts for i in range(c)]
        assert segment_ranges(arr).tolist() == expected
