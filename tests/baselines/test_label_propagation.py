"""Tests for label propagation (synchronous and data-driven)."""

import pytest

from repro import engine
from repro.analysis.verify import equivalent_labelings, is_valid_labeling
from repro.generators import grid_graph, uniform_random_graph
from repro.unionfind import sequential_components


@pytest.mark.parametrize(
    "lp",
    ["lp", "lp-datadriven"],
    ids=["label_propagation", "label_propagation_datadriven"],
)
class TestBothVariants:
    def test_fixture_graphs(self, lp, mixed_graph):
        r = engine.run(lp, mixed_graph)
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )

    def test_empty(self, lp, empty_graph):
        assert engine.run(lp, empty_graph).iterations == 0

    def test_isolated(self, lp, isolated_vertices):
        assert engine.run(lp, isolated_vertices).num_components == 5

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, lp, random_graph_factory, seed):
        g = random_graph_factory(50, 80, seed)
        assert is_valid_labeling(g, engine.run(lp, g).labels)

    def test_star(self, lp, star_graph):
        r = engine.run(lp, star_graph)
        assert r.num_components == 1


class TestDiameterDependence:
    def test_iterations_track_diameter(self):
        """LP's defining weakness: iteration count grows with diameter."""
        low_d = uniform_random_graph(1024, edge_factor=8, seed=0)
        high_d = grid_graph(32, 32)
        r_low = engine.run("lp", low_d)
        r_high = engine.run("lp", high_d)
        assert r_high.iterations > 4 * r_low.iterations

    def test_path_needs_linear_iterations(self, path_graph):
        r = engine.run("lp", path_graph)
        # Min label must travel the whole path.
        assert r.iterations >= 5

    def test_datadriven_processes_fewer_edges(self):
        g = grid_graph(24, 24)
        sync = engine.run("lp", g)
        dd = engine.run("lp-datadriven", g)
        # The frontier variant shrinks per-iteration work dramatically on
        # high-diameter graphs.
        assert dd.edges_processed < sync.edges_processed
        # ...and synchronous LP pays for the diameter: more than 5x the
        # single pass BFS needs on the same grid.
        bfs = engine.run("bfs", g)
        assert sync.edges_processed > 5 * bfs.edges_processed

    def test_datadriven_equivalent_on_grid(self):
        g = grid_graph(16, 16)
        assert equivalent_labelings(
            engine.run("lp", g).labels,
            engine.run("lp-datadriven", g).labels,
        )
