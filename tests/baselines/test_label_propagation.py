"""Tests for synchronous label propagation."""

import pytest

from repro import engine
from repro.analysis.verify import equivalent_labelings, is_valid_labeling
from repro.generators import grid_graph, uniform_random_graph
from repro.unionfind import sequential_components


@pytest.mark.parametrize("lp", ["lp"], ids=["label_propagation"])
class TestBothVariants:
    """Label propagation on the fixture graphs.  (Its data-driven twin is
    deleted; the class keeps its name so its test ids stay stable.)"""

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

    def test_work_exceeds_bfs_on_grid(self):
        # Synchronous LP pays for the diameter: more than 5x the edge
        # visits of the single pass BFS needs on the same grid.
        g = grid_graph(24, 24)
        sync = engine.run("lp", g)
        bfs = engine.run("bfs", g)
        assert sync.edges_processed > 5 * bfs.edges_processed
