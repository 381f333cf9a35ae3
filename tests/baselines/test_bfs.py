"""Tests for BFS-CC and DOBFS-CC."""

import pytest

from repro import engine
from repro.analysis.verify import equivalent_labelings, is_valid_labeling
from repro.generators import (
    component_fraction_graph,
    grid_graph,
    uniform_random_graph,
)
from repro.unionfind import sequential_components


@pytest.mark.parametrize("algo", ["bfs", "dobfs"], ids=["bfs_cc", "dobfs_cc"])
class TestBothTraversals:
    def test_fixture_graphs(self, algo, mixed_graph):
        r = engine.run(algo, mixed_graph)
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )
        assert r.num_components == 6

    def test_empty(self, algo, empty_graph):
        assert engine.run(algo, empty_graph).num_components == 0

    def test_isolated(self, algo, isolated_vertices):
        assert engine.run(algo, isolated_vertices).num_components == 5

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, algo, random_graph_factory, seed):
        g = random_graph_factory(60, 90, seed)
        assert is_valid_labeling(g, engine.run(algo, g).labels)

    def test_generator_families(self, algo):
        for g in (
            uniform_random_graph(500, edge_factor=4, seed=0),
            grid_graph(15, 15),
            component_fraction_graph(400, 0.25, edge_factor=6, seed=1),
        ):
            assert is_valid_labeling(g, engine.run(algo, g).labels)


class TestBFSWork:
    def test_linear_work(self):
        g = uniform_random_graph(400, edge_factor=6, seed=2)
        r = engine.run("bfs", g)
        # Each directed edge examined exactly once across all BFS runs.
        assert r.edges_processed == g.num_directed_edges

    def test_steps_scale_with_components(self):
        few = component_fraction_graph(1000, 1.0, edge_factor=8, seed=0)
        many = component_fraction_graph(1000, 0.01, edge_factor=8, seed=0)
        assert (
            engine.run("bfs", many).bfs_steps > engine.run("bfs", few).bfs_steps
        )


class TestDOBFSWork:
    def test_bottom_up_engages_on_giant(self):
        g = uniform_random_graph(2000, edge_factor=16, seed=3)
        r = engine.run("dobfs", g)
        assert r.bottom_up_steps > 0

    def test_early_exit_saves_edges(self):
        """The direction-optimizing claim: modeled edge work is sub-linear
        in |E| on low-diameter giant-component graphs."""
        g = uniform_random_graph(2000, edge_factor=16, seed=4)
        r = engine.run("dobfs", g)
        assert r.edges_processed < 0.7 * g.num_directed_edges
        assert r.edges_processed <= r.edges_gathered

    def test_no_savings_on_high_diameter(self):
        """On grid-like graphs bottom-up has nothing to early-exit into:
        DOBFS's modeled work is no better than plain BFS (the paper's
        Fig. 8a shows DOBFS losing to Afforest on road/osm)."""
        g = grid_graph(20, 20)
        r = engine.run("dobfs", g)
        assert r.edges_processed >= g.num_directed_edges

    def test_tiny_alpha_disables_bottom_up(self):
        # GAP's switch fires when scout > edges_to_check / alpha, so a
        # tiny alpha makes the threshold unreachable: pure top-down.
        g = uniform_random_graph(500, edge_factor=8, seed=5)
        r = engine.run("dobfs", g, alpha=1e-9)
        assert r.bottom_up_steps == 0
        assert r.edges_processed == g.num_directed_edges
