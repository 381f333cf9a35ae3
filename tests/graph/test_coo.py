"""Unit tests for the EdgeList (COO) container."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.coo import EdgeList


def el(n, pairs):
    if pairs:
        src, dst = zip(*pairs)
    else:
        src, dst = [], []
    return EdgeList(n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))


class TestConstruction:
    def test_basic(self):
        e = el(3, [(0, 1), (1, 2)])
        assert e.num_edges == 2
        assert e.num_vertices == 3

    def test_empty(self):
        e = el(0, [])
        assert e.num_edges == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphFormatError):
            el(2, [(0, 2)])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(GraphFormatError):
            el(2, [(-1, 0)])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphFormatError):
            EdgeList(3, np.array([0, 1]), np.array([1]))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphFormatError):
            EdgeList(-1, np.array([], dtype=np.int64), np.array([], dtype=np.int64))


class TestTransforms:
    def test_symmetrized_doubles_plain_edges(self):
        e = el(3, [(0, 1), (1, 2)]).symmetrized()
        assert sorted(e.as_pairs()) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_symmetrized_keeps_loops_single(self):
        e = el(2, [(0, 0), (0, 1)]).symmetrized()
        assert sorted(e.as_pairs()) == [(0, 0), (0, 1), (1, 0)]

    def test_deduplicated(self):
        e = el(3, [(0, 1), (0, 1), (1, 0), (2, 1)]).deduplicated()
        # orientation-aware: (0,1) and (1,0) both survive once
        assert sorted(e.as_pairs()) == [(0, 1), (1, 0), (2, 1)]

    def test_deduplicated_preserves_order(self):
        e = el(4, [(2, 3), (0, 1), (2, 3), (1, 2)]).deduplicated()
        assert e.as_pairs() == [(2, 3), (0, 1), (1, 2)]

    def test_without_self_loops(self):
        e = el(3, [(0, 0), (0, 1), (2, 2)]).without_self_loops()
        assert e.as_pairs() == [(0, 1)]

    def test_canonicalized(self):
        e = el(4, [(3, 1), (0, 2)]).canonicalized()
        assert e.as_pairs() == [(1, 3), (0, 2)]

    def test_concatenated(self):
        e = el(3, [(0, 1)]).concatenated(el(3, [(1, 2)]))
        assert e.as_pairs() == [(0, 1), (1, 2)]

    def test_concatenated_rejects_mismatched_order(self):
        with pytest.raises(GraphFormatError):
            el(3, [(0, 1)]).concatenated(el(4, [(1, 2)]))

    def test_relabeled(self):
        mapping = np.array([2, 0, 1])
        e = el(3, [(0, 1), (1, 2)]).relabeled(mapping, 3)
        assert e.as_pairs() == [(2, 0), (0, 1)]

    def test_relabeled_rejects_wrong_mapping_length(self):
        with pytest.raises(GraphFormatError):
            el(3, [(0, 1)]).relabeled(np.array([0, 1]), 3)

    def test_empty_transforms_are_noops(self):
        e = el(3, [])
        assert e.symmetrized().num_edges == 0
        assert e.deduplicated().num_edges == 0
        assert e.without_self_loops().num_edges == 0
        assert e.canonicalized().num_edges == 0
