"""Tests for the Shiloach–Vishkin baseline."""

import numpy as np
import pytest

from repro import engine
from repro.analysis.verify import equivalent_labelings, is_valid_labeling
from repro.engine import SimulatedBackend, VectorizedBackend
from repro.engine.hooking import sv_pipeline_edges
from repro.errors import ConfigurationError
from repro.generators import kronecker_graph, uniform_random_graph
from repro.parallel import SimulatedMachine
from repro.unionfind import sequential_components


class TestVectorizedSV:
    def test_fixture_graphs(self, mixed_graph):
        r = engine.run("sv", mixed_graph)
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )

    def test_empty(self, empty_graph):
        r = engine.run("sv", empty_graph)
        assert r.iterations == 0

    def test_isolated(self, isolated_vertices):
        r = engine.run("sv", isolated_vertices)
        assert r.num_components == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, random_graph_factory, seed):
        g = random_graph_factory(60, 100, seed)
        r = engine.run("sv", g)
        assert is_valid_labeling(g, r.labels)

    def test_reprocesses_all_edges_each_iteration(self):
        g = uniform_random_graph(200, edge_factor=4, seed=0)
        r = engine.run("sv", g)
        assert r.edges_processed == r.iterations * g.num_directed_edges
        assert r.iterations >= 2  # at least one working + one check pass

    def test_path_converges_quickly(self, path_graph):
        # Hook + full shortcut converges in O(log n) iterations.
        r = engine.run("sv", path_graph)
        assert r.iterations <= 5

    def test_depth_tracking(self):
        g = kronecker_graph(8, edge_factor=8, seed=1)
        r = engine.run("sv", g, track_depth=True)
        assert r.max_tree_depth >= 1
        assert len(r.depth_per_iteration) == r.iterations


class TestEdgeListSV:
    def test_matches_csr_variant(self):
        g = uniform_random_graph(300, edge_factor=4, seed=2)
        src, dst = g.edge_array()
        a = engine.run("sv", g)
        b = sv_pipeline_edges(VectorizedBackend(), g.num_vertices, src, dst)
        assert np.array_equal(a.labels, b.labels)
        assert a.iterations == b.iterations

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        r = sv_pipeline_edges(VectorizedBackend(), 0, empty, empty)
        assert r.num_components == 0

    @pytest.mark.parametrize(
        "n, src, dst, match",
        [
            (3, [0, -1], [1, 2], r"\[0, 3\)"),
            (3, [0, 1], [1, 5], r"\[0, 3\)"),
            (3, [0, 1], [1], "equal length"),
            (3, [[0, 1]], [[1, 2]], "1-D"),
            (3, [0.0, 1.0], [1.0, 2.0], "non-integer"),
            (-1, [], [], "num_vertices must be >= 0"),
        ],
        ids=["negative-id", "id-past-n", "unequal", "2-d", "float", "negative-n"],
    )
    def test_bad_edge_list_rejected(self, n, src, dst, match):
        backend = VectorizedBackend()
        with pytest.raises(ConfigurationError, match=match):
            sv_pipeline_edges(backend, n, np.asarray(src), np.asarray(dst))
        assert backend.pool._buffers == {}


def _sv_simulated(graph, machine):
    """Shiloach–Vishkin on the simulated machine via the engine registry."""
    return engine.run("sv", graph, backend=SimulatedBackend(machine))


class TestSimulatedSV:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_reference(self, workers, mixed_graph):
        m = SimulatedMachine(workers, schedule="cyclic")
        r = _sv_simulated(mixed_graph, m)
        assert equivalent_labelings(
            r.labels, sequential_components(mixed_graph)
        )

    def test_random_interleavings(self, random_graph_factory):
        for seed in range(5):
            g = random_graph_factory(25, 45, seed)
            m = SimulatedMachine(
                4, schedule="cyclic", interleave="random", seed=seed
            )
            r = _sv_simulated(g, m)
            assert equivalent_labelings(r.labels, sequential_components(g))

    def test_phase_structure(self, two_cliques):
        m = SimulatedMachine(2)
        r = _sv_simulated(two_cliques, m)
        labels = [p.label for p in m.stats.phases]
        assert labels[0] == "I"
        assert labels[1] == "H1"
        assert labels[2] == "S1"
        # The converged final iteration skips its trailing compress.
        skipped = 1 if r.iterations > 1 else 0
        assert len(labels) == 1 + 2 * r.iterations - skipped

    def test_more_work_than_afforest(self):
        """The headline work-efficiency claim at simulator level."""
        g = uniform_random_graph(400, edge_factor=8, seed=3)
        m_sv = SimulatedMachine(4)
        _sv_simulated(g, m_sv)
        m_af = SimulatedMachine(4)
        engine.run("afforest", g, backend=SimulatedBackend(m_af))
        assert m_sv.stats.total_work > m_af.stats.total_work

        # The same hierarchy in processed edges on a giant-component
        # urand: Afforest touches the least, SV and LP pay |E| per
        # iteration, BFS pays |E| once.
        g = uniform_random_graph(1000, edge_factor=8, seed=0)
        af = engine.run("afforest", g).edges_touched
        assert engine.run("sv", g).edges_processed > 2 * af
        assert engine.run("lp", g).edges_processed > 2 * af
        assert engine.run("bfs", g).edges_processed > af


class TestShortcutVariants:
    def test_unknown_shortcut_rejected(self, mixed_graph):
        # The shortcut is always a full compress (GAP's formulation), so
        # ``sv`` takes no ``shortcut`` parameter at all.
        with pytest.raises(ConfigurationError, match="accepted"):
            engine.run("sv", mixed_graph, shortcut="double")
