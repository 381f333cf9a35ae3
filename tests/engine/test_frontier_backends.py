"""Cross-backend equivalence for the lifted frontier pipelines.

lp, bfs and dobfs are written once against the frontier/label
primitive family and must produce the same labeling on every backend.
All three converge to the component-minimum
labeling (min-label scatter / min-seed BFS), so — like the name-table
suite in ``test_plans.py`` — the assertion is bit-identical labels, not just
partition equivalence.
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis import equivalent_labelings
from repro.bench.runner import run_algorithm
from repro.engine import DistributedBackend, SimulatedBackend
from repro.errors import ConfigurationError
from repro.generators.components import component_fraction_graph
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components

FRONTIER_ALGORITHMS = ("lp", "bfs", "dobfs")


def _family_graphs() -> list[tuple[str, CSRGraph]]:
    return [
        ("powerlaw", barabasi_albert_graph(400, edges_per_vertex=4, seed=3)),
        ("lattice", grid_graph(16, 16)),
        ("multi-component", component_fraction_graph(300, 0.25, seed=11)),
        ("empty", from_edge_list([], num_vertices=0)),
        ("singleton", from_edge_list([], num_vertices=1)),
    ]


@pytest.fixture(scope="module", params=[1, 2, 4])
def distributed_backend(request):
    """One backend per rank count, shared across this module."""
    return DistributedBackend(ranks=request.param)


class TestFrontierBackendEquivalence:
    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_distributed_matches_vectorized(
        self, algorithm, family, graph, distributed_backend
    ):
        vec = engine.run(algorithm, graph)
        dist = engine.run(algorithm, graph, backend=distributed_backend)
        # Min-label convention: same labels, not just the same partition.
        assert np.array_equal(vec.labels, dist.labels)
        assert vec.num_components == dist.num_components

    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_simulated_matches_vectorized(self, algorithm, family, graph):
        vec = engine.run(algorithm, graph)
        sim = engine.run(
            algorithm,
            graph,
            backend=SimulatedBackend(SimulatedMachine(3, seed=7)),
        )
        assert np.array_equal(vec.labels, sim.labels)

    @pytest.mark.parametrize("algorithm", FRONTIER_ALGORITHMS)
    def test_matches_union_find_oracle(
        self, algorithm, distributed_backend, random_graph_factory
    ):
        g = random_graph_factory(120, 300, seed=8)
        ref = sequential_components(g)
        result = engine.run(algorithm, g, backend=distributed_backend)
        assert equivalent_labelings(result.labels, ref)

    @pytest.mark.parametrize("algorithm", ("bfs", "dobfs"))
    def test_traversal_counters_match_across_backends(
        self, algorithm, random_graph_factory
    ):
        """Frontier structure pins the step counters on every substrate."""
        g = random_graph_factory(80, 200, seed=4)
        vec = engine.run(algorithm, g)
        sim = engine.run(
            algorithm, g, backend=SimulatedBackend(SimulatedMachine(2, seed=1))
        )
        assert vec.bfs_steps > 0
        assert vec.bfs_steps == sim.bfs_steps
        assert vec.top_down_steps == sim.top_down_steps
        assert vec.bottom_up_steps == sim.bottom_up_steps

    def test_lp_simulated_converges_at_least_as_fast(self, random_graph_factory):
        """The simulated machine reads π live, so labels can chain through
        several hops inside one pass — convergence in no more passes than
        the synchronous vectorized sweep."""
        g = random_graph_factory(80, 200, seed=4)
        vec = engine.run("lp", g)
        sim = engine.run(
            "lp", g, backend=SimulatedBackend(SimulatedMachine(2, seed=1))
        )
        assert 1 <= sim.iterations <= vec.iterations

    def test_repeated_frontier_runs_on_one_pool(self):
        """Pipeline switching reuses one backend's buffer pool and shards."""
        g = barabasi_albert_graph(300, edges_per_vertex=3, seed=13)
        oracle = sequential_components(g)
        backend = DistributedBackend(ranks=2)
        for trial in range(8):
            algorithm = FRONTIER_ALGORITHMS[trial % len(FRONTIER_ALGORITHMS)]
            result = engine.run(algorithm, g, backend=backend)
            assert equivalent_labelings(result.labels, oracle), (
                f"trial {trial} ({algorithm}) diverged from the oracle"
            )

    @pytest.mark.parametrize("algorithm", ["bfs", "dobfs"])
    def test_seeds_left_by_a_run_stay_in_it(self, algorithm):
        """A run that ends on isolated vertices leaves their seeds
        unbroadcast (no primitive follows them); the next run on the
        backend, here on a smaller graph, must not see them."""
        tail = from_edge_list([(0, 1), (1, 2)], num_vertices=40)
        small = from_edge_list([(0, 1), (2, 3)], num_vertices=5)
        backend = DistributedBackend(ranks=2)
        engine.run(algorithm, tail, backend=backend)
        result = engine.run(algorithm, small, backend=backend, profile=True)
        fresh = engine.run(
            algorithm, small, backend=DistributedBackend(ranks=2), profile=True
        )
        assert np.array_equal(result.labels, fresh.labels)

        def traffic(counters):
            return {k: v for k, v in counters.items() if k.startswith("comm_")}

        assert traffic(result.counters) == traffic(fresh.counters)


class TestFrontierProfiling:
    def test_lp_distributed_profile_has_sweep_phases(self):
        g = grid_graph(14, 14)
        result = engine.run(
            "lp", g, backend=DistributedBackend(ranks=2), profile=True
        )
        assert "P1" in result.phase_seconds
        assert "total" in result.phase_seconds

    def test_bfs_trace_has_frontier_attrs(self):
        g = barabasi_albert_graph(300, edges_per_vertex=3, seed=2)
        result = engine.run(
            "bfs", g, backend=DistributedBackend(ranks=2), profile=True
        )
        assert result.trace is not None
        t_spans = [s for s, _depth in result.trace.walk() if s.name == "T"]
        assert t_spans and all("frontier" in s.attrs for s in t_spans)

    def test_dobfs_emits_bottom_up_phases_on_giant(self):
        # A dense giant component triggers the bottom-up switch.
        g = barabasi_albert_graph(400, edges_per_vertex=8, seed=9)
        result = engine.run("dobfs", g, profile=True)
        assert result.bottom_up_steps > 0
        assert any(p.startswith("B") for p in result.phase_seconds)

    @pytest.mark.parametrize(
        "params",
        [{"alpha": 0}, {"beta": 0}, {"alpha": -1.0}, {"beta": float("nan")}],
        ids=["alpha=0", "beta=0", "alpha<0", "beta=nan"],
    )
    def test_dobfs_rejects_non_positive_switch_params(self, params):
        # Both divide DOBFS's switch thresholds; before validation a zero
        # surfaced as a bare ZeroDivisionError mid-traversal.
        g = barabasi_albert_graph(300, edges_per_vertex=3, seed=1)
        key = next(iter(params))
        with pytest.raises(ConfigurationError, match=f"{key} must be > 0"):
            engine.run("dobfs", g, **params)


class TestSupportMatrix:
    def test_frontier_algorithms_support_all_backends(self):
        for name in FRONTIER_ALGORITHMS:
            for kind in ("vectorized", "simulated", "distributed"):
                assert engine.supports_backend(name, kind), (name, kind)


class TestBenchmarkRecordProvenance:
    def test_record_carries_backend_and_workers(self, mixed_graph):
        rec = run_algorithm(
            mixed_graph, "lp", "mixed", repeats=2, backend="simulated", workers=2
        )
        assert rec.backend == "simulated"
        assert rec.workers == 2

    def test_record_defaults_to_vectorized(self, mixed_graph):
        rec = run_algorithm(mixed_graph, "bfs", "mixed", repeats=2)
        assert rec.backend == "vectorized"
        assert rec.workers is None
