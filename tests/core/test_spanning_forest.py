"""Unit tests for spanning forest extraction."""

import numpy as np

from repro.analysis.verify import equivalent_labelings
from repro.core.spanning_forest import spanning_forest, spanning_forest_size
from repro.graph.builder import build_csr
from repro.graph.properties import component_census
from repro.unionfind import sequential_components


class TestSpanningForest:
    def test_size_is_v_minus_c(self, mixed_graph):
        census = component_census(mixed_graph)
        sf = spanning_forest(mixed_graph)
        assert sf.num_edges == mixed_graph.num_vertices - census.num_components
        assert spanning_forest_size(mixed_graph) == sf.num_edges

    def test_preserves_connectivity(self, mixed_graph):
        sf = spanning_forest(mixed_graph)
        # EdgeList carries the full vertex count, so the SF graph keeps
        # isolated vertices and the partitions are directly comparable.
        orig = sequential_components(mixed_graph)
        reduced = sequential_components(build_csr(sf))
        assert equivalent_labelings(orig, reduced)

    def test_acyclic(self, two_cliques):
        sf = spanning_forest(two_cliques)
        # |V| - C edges and preserved connectivity => forest (acyclic).
        assert sf.num_edges == 8 - 2

    def test_tree_input_returns_all_edges(self, path_graph):
        sf = spanning_forest(path_graph)
        assert sf.num_edges == path_graph.num_edges

    def test_empty_graph(self, empty_graph):
        assert spanning_forest(empty_graph).num_edges == 0
        assert spanning_forest_size(empty_graph) == 0

    def test_isolated_vertices(self, isolated_vertices):
        assert spanning_forest(isolated_vertices).num_edges == 0

    def test_random_graphs(self, random_graph_factory):
        for seed in range(6):
            g = random_graph_factory(40, 70, seed)
            census = component_census(g)
            sf = spanning_forest(g)
            assert sf.num_edges == g.num_vertices - census.num_components
            orig = sequential_components(g)
            reduced = sequential_components(build_csr(sf))
            assert equivalent_labelings(orig, reduced)
