"""Unit tests for the CSR graph representation."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import GraphBuilder, from_edge_list
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_valid_triangle(self):
        g = CSRGraph(
            np.array([0, 2, 4, 6]), np.array([1, 2, 0, 2, 0, 1])
        )
        assert g.num_vertices == 3
        assert g.num_edges == 3
        assert g.num_directed_edges == 6

    def test_empty_graph(self):
        g = CSRGraph(np.array([0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_vertices_without_edges(self):
        g = CSRGraph(np.array([0, 0, 0, 0]), np.array([], dtype=np.int64))
        assert g.num_vertices == 3
        assert g.degree(1) == 0

    def test_rejects_bad_first_indptr(self):
        with pytest.raises(GraphFormatError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_rejects_mismatched_indptr_tail(self):
        with pytest.raises(GraphFormatError, match="indptr\\[-1\\]"):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphFormatError, match="monotone"):
            CSRGraph(np.array([0, 2, 1, 3]), np.array([0, 1, 2]))

    def test_rejects_out_of_range_neighbor(self):
        with pytest.raises(GraphFormatError, match="neighbour ids"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_negative_neighbor(self):
        with pytest.raises(GraphFormatError, match="neighbour ids"):
            CSRGraph(np.array([0, 1]), np.array([-1]))

    def test_rejects_2d_arrays(self):
        with pytest.raises(GraphFormatError, match="1-D"):
            CSRGraph(np.array([[0, 1]]), np.array([0]))

    def test_arrays_frozen(self):
        g = from_edge_list([(0, 1)])
        with pytest.raises(ValueError):
            g.indptr[0] = 5
        with pytest.raises(ValueError):
            g.indices[0] = 0


class TestAccessors:
    def test_degree_array(self, star_graph):
        deg = star_graph.degree()
        assert deg[0] == 7
        assert all(deg[1:] == 1)

    def test_degree_single(self, star_graph):
        assert star_graph.degree(0) == 7
        assert star_graph.degree(3) == 1

    def test_degree_out_of_range(self, star_graph):
        with pytest.raises(IndexError):
            star_graph.degree(8)
        with pytest.raises(IndexError):
            star_graph.degree(-1)

    def test_neighbors(self, path_graph):
        assert path_graph.neighbors(0).tolist() == [1]
        assert path_graph.neighbors(2).tolist() == [1, 3]
        assert path_graph.neighbors(5).tolist() == [4]

    def test_neighbor_indexed(self, path_graph):
        assert path_graph.neighbor(2, 0) == 1
        assert path_graph.neighbor(2, 1) == 3

    def test_neighbor_index_out_of_range(self, path_graph):
        with pytest.raises(IndexError):
            path_graph.neighbor(0, 1)
        with pytest.raises(IndexError):
            path_graph.neighbor(0, -1)

    def test_sources(self, path_graph):
        src = path_graph.sources()
        # degree sequence 1,2,2,2,2,1
        assert src.tolist() == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5]

    def test_edge_array_parallel(self, cycle_graph):
        src, dst = cycle_graph.edge_array()
        assert src.shape == dst.shape
        assert src.shape[0] == cycle_graph.num_directed_edges

    def test_undirected_edge_array(self, cycle_graph):
        src, dst = cycle_graph.undirected_edge_array()
        assert src.shape[0] == cycle_graph.num_edges == 6
        assert np.all(src <= dst)

    def test_has_edge(self, two_cliques):
        assert two_cliques.has_edge(0, 3)
        assert two_cliques.has_edge(4, 7)
        assert not two_cliques.has_edge(0, 4)
        assert not two_cliques.has_edge(0, 0)

    def test_has_edge_unsorted_fallback(self):
        # Build without sorting to exercise the linear-scan path.
        from repro.graph.builder import build_csr
        from repro.graph.coo import EdgeList

        el = EdgeList(4, np.array([0, 0, 0]), np.array([3, 1, 2]))
        g = build_csr(el, sort_neighbors=False)
        assert g.neighbors(0).tolist() == [3, 1, 2]
        assert g.has_edge(0, 1)
        assert not g.has_edge(0, 0)


class TestSelfLoops:
    def test_self_loop_counting(self):
        from repro.graph.builder import build_csr
        from repro.graph.coo import EdgeList

        el = EdgeList(3, np.array([0, 1]), np.array([0, 2]))
        g = build_csr(el, drop_self_loops=False)
        assert g.num_self_loops == 1
        # one loop (counted once) + one ordinary edge
        assert g.num_edges == 2
        assert g.num_directed_edges == 3


class TestEquality:
    def test_equal_graphs(self):
        a = from_edge_list([(0, 1), (1, 2)])
        b = from_edge_list([(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        a = from_edge_list([(0, 1)])
        b = from_edge_list([(0, 1), (1, 2)])
        assert a != b

    def test_eq_other_type(self):
        a = from_edge_list([(0, 1)])
        assert a != "graph"


class TestGraphBuilderShapes:
    def test_clique_edge_count(self):
        g = GraphBuilder(5).add_clique(list(range(5))).build()
        assert g.num_edges == 10

    def test_cycle_closes(self):
        g = GraphBuilder(4).add_cycle([0, 1, 2, 3]).build()
        assert g.has_edge(3, 0)
        assert g.num_edges == 4

    def test_star_degrees(self):
        g = GraphBuilder(4).add_star(0, [1, 2, 3]).build()
        assert g.degree(0) == 3

    def test_builder_chaining(self):
        g = GraphBuilder(6).add_edge(0, 1).add_edges([(1, 2), (3, 4)]).build()
        assert g.num_edges == 3

    def test_builder_rejects_negative(self):
        with pytest.raises(GraphFormatError):
            GraphBuilder().add_edge(-1, 0)

    def test_builder_infers_vertex_count(self):
        g = GraphBuilder().add_edge(2, 7).build()
        assert g.num_vertices == 8
