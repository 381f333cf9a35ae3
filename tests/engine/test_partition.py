"""Tests for CSR edge-block partitioning."""

import numpy as np
import pytest

from repro.engine.partition import block_bounds, partition_csr_blocks
from repro.errors import ConfigurationError
from repro.generators.powerlaw import barabasi_albert_graph


class TestPartitionCSRBlocks:
    def test_blocks_tile_the_graph(self):
        g = barabasi_albert_graph(500, edges_per_vertex=3, seed=2)
        blocks = partition_csr_blocks(g.indptr, 4)
        assert blocks[0].v_lo == 0 and blocks[0].e_lo == 0
        assert blocks[-1].v_hi == g.num_vertices
        assert blocks[-1].e_hi == g.num_directed_edges
        for prev, cur in zip(blocks, blocks[1:]):
            assert cur.v_lo == prev.v_hi
            assert cur.e_lo == prev.e_hi

    def test_cuts_respect_vertex_boundaries(self):
        g = barabasi_albert_graph(300, edges_per_vertex=5, seed=9)
        for blocks in (partition_csr_blocks(g.indptr, k) for k in (1, 2, 3, 8)):
            for b in blocks:
                # A block's edge range is exactly its vertices' adjacency.
                assert b.e_lo == int(g.indptr[b.v_lo])
                assert b.e_hi == int(g.indptr[b.v_hi])

    def test_edge_balance_under_skew(self):
        # Power-law degrees: an even vertex split would be badly edge-
        # imbalanced; the searchsorted cuts must keep blocks near m/k.
        g = barabasi_albert_graph(2000, edges_per_vertex=8, seed=4)
        blocks = partition_csr_blocks(g.indptr, 4)
        target = g.num_directed_edges / 4
        max_degree = int(np.diff(g.indptr).max())
        for b in blocks:
            # A cut can miss the ideal point by at most one adjacency list.
            assert abs(b.num_edges - target) <= max_degree + target / 2

    def test_more_blocks_than_vertices(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        blocks = partition_csr_blocks(indptr, 8)
        assert len(blocks) == 8
        assert sum(b.num_vertices for b in blocks) == 2
        assert sum(b.num_edges for b in blocks) == 2

    def test_empty_graph(self):
        indptr = np.array([0], dtype=np.int64)
        blocks = partition_csr_blocks(indptr, 3)
        assert sum(b.num_vertices for b in blocks) == 0
        assert sum(b.num_edges for b in blocks) == 0

    def test_invalid_block_count(self):
        with pytest.raises(ConfigurationError):
            partition_csr_blocks(np.array([0], dtype=np.int64), 0)


class TestPartitionRanges:
    """:func:`block_bounds`: the even 1-D cut points."""

    def test_covers_total(self):
        bounds = block_bounds(10, 3)
        assert bounds.tolist() == [0, 3, 6, 10]
        assert bounds.dtype == np.int64
        assert np.all(np.diff(bounds) >= 0)

    def test_zero_total(self):
        assert block_bounds(0, 4).tolist() == [0, 0, 0, 0, 0]

