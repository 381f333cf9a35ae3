"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.generators import (
    barabasi_albert_graph,
    chung_lu_graph,
    component_fraction_graph,
    grid_graph,
    kronecker_graph,
    random_regular_graph,
    road_network_graph,
    uniform_random_graph,
    watts_strogatz_graph,
    web_graph,
)
from repro.generators.components import component_blocks
from repro.graph.properties import component_census, exact_diameter
from repro.graph.validate import validate_graph


class TestUniform:
    def test_size(self):
        g = uniform_random_graph(100, edge_factor=4, seed=0)
        assert g.num_vertices == 100
        assert 300 <= g.num_edges <= 400  # dedup/self-loop losses only

    def test_deterministic(self):
        a = uniform_random_graph(50, seed=7)
        b = uniform_random_graph(50, seed=7)
        assert a == b

    def test_seed_changes_graph(self):
        a = uniform_random_graph(50, seed=1)
        b = uniform_random_graph(50, seed=2)
        assert a != b

    def test_explicit_edge_count(self):
        g = uniform_random_graph(100, num_edges=10, seed=0)
        assert g.num_edges <= 10

    def test_structure_valid(self):
        validate_graph(uniform_random_graph(64, seed=3), require_sorted=True)

    def test_rejects_zero_vertices(self):
        with pytest.raises(ConfigurationError):
            uniform_random_graph(0)

    def test_rejects_negative_edge_factor(self):
        with pytest.raises(ConfigurationError):
            uniform_random_graph(10, edge_factor=-1)


class TestKronecker:
    def test_size(self):
        g = kronecker_graph(8, edge_factor=8, seed=0)
        assert g.num_vertices == 256

    def test_deterministic(self):
        assert kronecker_graph(6, seed=5) == kronecker_graph(6, seed=5)

    def test_skewed_degrees(self):
        g = kronecker_graph(11, edge_factor=16, seed=0)
        deg = np.asarray(g.degree())
        # R-MAT graphs are heavy-tailed: max degree far above the mean.
        assert deg.max() > 8 * deg.mean()

    def test_permutation_hides_structure(self):
        # Without label permutation, low ids have systematically higher
        # degree; with it, the correlation disappears.
        g_raw = kronecker_graph(10, seed=0, permute_labels=False)
        deg = np.asarray(g_raw.degree()).astype(float)
        n = g_raw.num_vertices
        low = deg[: n // 4].mean()
        high = deg[3 * n // 4 :].mean()
        assert low > 2 * high

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            kronecker_graph(4, a=0.9, b=0.2, c=0.2)

    def test_structure_valid(self):
        validate_graph(kronecker_graph(7, seed=1), require_sorted=True)


class TestRegular:
    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_near_regular(self, d):
        g = random_regular_graph(200, d, seed=0)
        deg = np.asarray(g.degree())
        # Configuration model with re-shuffling: tiny defect allowed.
        assert deg.mean() == pytest.approx(d, rel=0.02)
        assert deg.max() <= d

    def test_rejects_odd_product(self):
        with pytest.raises(ConfigurationError, match="even"):
            random_regular_graph(5, 3)

    def test_rejects_degree_too_high(self):
        with pytest.raises(ConfigurationError, match="degree"):
            random_regular_graph(4, 4)

    def test_zero_degree(self):
        g = random_regular_graph(10, 0, seed=0)
        assert g.num_edges == 0

    def test_simple_graph(self):
        g = random_regular_graph(100, 4, seed=1)
        validate_graph(g, require_sorted=True)  # no loops, no duplicates


class TestLattice:
    def test_grid_edge_count(self):
        g = grid_graph(4, 5)
        assert g.num_vertices == 20
        assert g.num_edges == 4 * 4 + 3 * 5  # horizontal + vertical

    def test_grid_diameter(self):
        g = grid_graph(3, 4)
        assert exact_diameter(g) == (3 - 1) + (4 - 1)

    def test_grid_connected(self):
        assert component_census(grid_graph(6, 6)).num_components == 1

    def test_torus_degrees(self):
        g = grid_graph(4, 4, periodic=True)
        deg = np.asarray(g.degree())
        assert np.all(deg == 4)

    def test_road_network_low_degree(self):
        g = road_network_graph(30, 30, seed=0)
        deg = np.asarray(g.degree())
        assert deg.max() <= 6  # grid degree 4 + rare highway endpoints

    def test_road_network_drop_disconnects_or_sparsifies(self):
        dense = road_network_graph(20, 20, drop=0.0, highway=0.0, seed=0)
        sparse = road_network_graph(20, 20, drop=0.3, highway=0.0, seed=0)
        assert sparse.num_edges < dense.num_edges

    def test_rejects_bad_drop(self):
        with pytest.raises(ConfigurationError):
            road_network_graph(5, 5, drop=1.5)


class TestSmallWorld:
    def test_ring_without_rewiring(self):
        g = watts_strogatz_graph(20, k=4, rewire=0.0)
        deg = np.asarray(g.degree())
        assert np.all(deg == 4)

    def test_rejects_odd_k(self):
        with pytest.raises(ConfigurationError, match="even"):
            watts_strogatz_graph(10, k=3)

    def test_rejects_k_too_large(self):
        with pytest.raises(ConfigurationError):
            watts_strogatz_graph(4, k=4)

    def test_rewiring_changes_graph(self):
        a = watts_strogatz_graph(50, k=4, rewire=0.0, seed=0)
        b = watts_strogatz_graph(50, k=4, rewire=0.5, seed=0)
        assert a != b

    def test_web_graph_heavy_tail(self):
        g = web_graph(2000, seed=0)
        deg = np.asarray(g.degree())
        assert deg.max() > 4 * deg.mean()

    def test_web_graph_connected_locality(self):
        # The ring layer alone keeps the graph connected.
        g = web_graph(500, rewire=0.0, seed=1)
        assert component_census(g).num_components == 1


class TestPowerlaw:
    def test_ba_connected(self):
        g = barabasi_albert_graph(500, 3, seed=0)
        assert component_census(g).num_components == 1

    def test_ba_heavy_tail(self):
        g = barabasi_albert_graph(2000, 4, seed=0)
        deg = np.asarray(g.degree())
        assert deg.max() > 5 * deg.mean()

    def test_ba_small_n_falls_back_to_clique(self):
        g = barabasi_albert_graph(4, 8, seed=0)
        assert g.num_edges == 6  # K4

    def test_ba_rejects_zero_m(self):
        with pytest.raises(ConfigurationError):
            barabasi_albert_graph(10, 0)

    @pytest.mark.parametrize(
        "build,name",
        [
            (lambda: barabasi_albert_graph(100, 2.5), "edges_per_vertex"),
            (lambda: barabasi_albert_graph(100.0, 3), "num_vertices"),
            (lambda: barabasi_albert_graph(100, True), "edges_per_vertex"),
            (lambda: web_graph(100, hub_edges_per_vertex=2.5), "edges_per_vertex"),
            (lambda: web_graph(100.0), "num_vertices"),
        ],
        ids=["float-m", "float-n", "bool-m", "web-float-hubs", "web-float-n"],
    )
    def test_sizes_must_be_integers(self, build, name):
        with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
            build()

    def test_numpy_integer_sizes_accepted(self):
        g = barabasi_albert_graph(np.int64(100), np.int32(3), seed=0)
        assert g == barabasi_albert_graph(100, 3, seed=0)
        h = web_graph(np.int32(200), hub_edges_per_vertex=np.int64(2), seed=0)
        assert h == web_graph(200, hub_edges_per_vertex=2, seed=0)

    def test_chung_lu_mean_degree(self):
        g = chung_lu_graph(4000, mean_degree=10.0, seed=0)
        deg = np.asarray(g.degree())
        # m = n * mean_degree / 2 undirected draws -> stored (directed)
        # mean degree ~ mean_degree, less dedup/self-loop losses.
        assert deg.mean() == pytest.approx(10.0, rel=0.25)

    def test_chung_lu_many_components(self):
        g = chung_lu_graph(4000, mean_degree=6.0, seed=0)
        census = component_census(g)
        assert census.num_components > 10
        assert census.largest_fraction > 0.5

    def test_chung_lu_rejects_bad_exponent(self):
        with pytest.raises(ConfigurationError):
            chung_lu_graph(100, exponent=1.0)


class TestComponentFraction:
    def test_blocks_partition_vertices(self):
        sizes = component_blocks(100, 0.3)
        assert int(sizes.sum()) == 100
        assert sizes.tolist() == [30, 30, 30, 10]

    def test_blocks_f_one(self):
        assert component_blocks(64, 1.0).tolist() == [64]

    def test_blocks_reject_empty(self):
        with pytest.raises(ConfigurationError):
            component_blocks(10, 0.01)

    def test_expected_component_structure(self):
        g = component_fraction_graph(2000, 0.1, edge_factor=8, seed=0)
        census = component_census(g)
        # ~10 components of ~200 vertices each (blocks connect internally
        # almost surely at edge_factor 8).
        assert census.num_components == 10
        assert census.sizes.max() <= 210

    def test_f_one_single_component(self):
        g = component_fraction_graph(500, 1.0, edge_factor=8, seed=0)
        assert component_census(g).num_components == 1

    def test_label_shuffle_preserves_structure(self):
        a = component_fraction_graph(400, 0.25, seed=3, shuffle_labels=False)
        b = component_fraction_graph(400, 0.25, seed=3, shuffle_labels=True)
        ca, cb = component_census(a), component_census(b)
        assert ca.sizes.tolist() == cb.sizes.tolist()

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError):
            component_fraction_graph(100, 0.0)
        with pytest.raises(ConfigurationError):
            component_fraction_graph(100, 1.5)
