"""Unit tests for CSR construction from edge data."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.builder import (
    _MAX_KEYED_VERTICES,
    build_csr,
    edge_keys,
    from_edge_array,
    from_edge_list,
)
from repro.graph.coo import EdgeList
from repro.graph.validate import (
    check_no_duplicates,
    check_no_self_loops,
    check_sorted_neighbors,
    check_symmetric,
)


def test_symmetrize_default():
    g = from_edge_list([(0, 1), (1, 2)])
    check_symmetric(g)
    assert g.has_edge(1, 0)
    assert g.has_edge(2, 1)


def test_dedup_default():
    g = from_edge_list([(0, 1), (0, 1), (1, 0)])
    assert g.num_edges == 1
    check_no_duplicates(g)


def test_self_loops_dropped_by_default():
    g = from_edge_list([(0, 0), (0, 1)])
    check_no_self_loops(g)
    assert g.num_edges == 1


def test_self_loops_kept_when_requested():
    el = EdgeList(2, np.array([0]), np.array([0]))
    g = build_csr(el, drop_self_loops=False)
    assert g.num_self_loops == 1


def test_sorted_neighbors_default():
    g = from_edge_list([(0, 3), (0, 1), (0, 2)], num_vertices=4)
    check_sorted_neighbors(g)
    assert g.neighbors(0).tolist() == [1, 2, 3]


def test_unsorted_preserves_insertion_order():
    el = EdgeList(4, np.array([0, 0, 0]), np.array([3, 1, 2]))
    g = build_csr(el, symmetrize=False, dedup=False, sort_neighbors=False)
    assert g.neighbors(0).tolist() == [3, 1, 2]


def test_unsorted_symmetrized_row_order():
    """With symmetrize + stable placement, each row keeps input order:
    forward records first, mirrored records after."""
    el = EdgeList(3, np.array([0, 1]), np.array([2, 0]))
    g = build_csr(el, sort_neighbors=False)
    assert g.neighbors(0).tolist() == [2, 1]  # fwd (0,2) then mirror of (1,0)


def test_no_symmetrize():
    el = EdgeList(3, np.array([0]), np.array([1]))
    g = build_csr(el, symmetrize=False)
    assert g.degree(0) == 1
    assert g.degree(1) == 0


def test_from_edge_array_infers_count():
    g = from_edge_array(np.array([0, 5]), np.array([1, 2]))
    assert g.num_vertices == 6


def test_from_edge_array_empty():
    g = from_edge_array(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    assert g.num_vertices == 0


def test_from_edge_array_explicit_count():
    g = from_edge_array(np.array([0]), np.array([1]), num_vertices=10)
    assert g.num_vertices == 10


def test_from_edge_list_rejects_bad_shape():
    with pytest.raises(GraphFormatError):
        from_edge_list([(0, 1, 2)])  # type: ignore[list-item]


def test_from_edge_list_empty():
    g = from_edge_list([])
    assert g.num_vertices == 0
    assert g.num_edges == 0


def test_degree_sum_equals_directed_edges():
    g = from_edge_list([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert int(np.asarray(g.degree()).sum()) == g.num_directed_edges


def test_multigraph_input_normalises():
    pairs = [(0, 1)] * 5 + [(1, 0)] * 3 + [(1, 1)] * 2
    g = from_edge_list(pairs)
    assert g.num_edges == 1
    assert g.num_self_loops == 0


def test_edge_keys_vertex_limit():
    # The largest keyed vertex count still encodes its last edge exactly;
    # one more vertex would wrap int64 and raises instead.
    top = np.array([_MAX_KEYED_VERTICES - 1])
    key = edge_keys(top, top, _MAX_KEYED_VERTICES)
    assert int(key[0]) == _MAX_KEYED_VERTICES**2 - 1
    with pytest.raises(GraphFormatError, match="int64 edge-key range"):
        edge_keys(top, top, _MAX_KEYED_VERTICES + 1)
