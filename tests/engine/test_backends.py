"""Tests for execution backends: one pipeline, two substrates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import (
    DistributedBackend,
    SimulatedBackend,
    VectorizedBackend,
    backends,
)
from repro.errors import ConfigurationError
from repro.generators import barabasi_albert_graph, road_network_graph
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph
from repro.obs import Tracer
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components


class TestBackendEquivalence:
    """The same pipeline must agree across substrates (acceptance check)."""

    @pytest.mark.parametrize("algorithm", ["afforest", "afforest-noskip", "sv"])
    def test_vectorized_vs_simulated_partition(self, algorithm, mixed_graph):
        vec = engine.run(algorithm, mixed_graph)
        sim = engine.run(
            algorithm,
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(3, seed=7)),
        )
        assert equivalent_labelings(vec.labels, sim.labels)
        assert vec.num_components == sim.num_components

    @pytest.mark.parametrize("algorithm", ["afforest", "sv"])
    def test_equivalence_on_random_graph(self, algorithm, random_graph_factory):
        g = random_graph_factory(60, 150, seed=3)
        ref = sequential_components(g)
        vec = engine.run(algorithm, g)
        sim = engine.run(
            algorithm, g, backend=SimulatedBackend(SimulatedMachine(4, seed=1))
        )
        assert equivalent_labelings(vec.labels, ref)
        assert equivalent_labelings(sim.labels, ref)

    def test_afforest_edge_accounting_matches_across_backends(self, mixed_graph):
        vec = engine.run("afforest", mixed_graph)
        sim = engine.run(
            "afforest",
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(2, seed=5)),
        )
        m = mixed_graph.num_directed_edges
        assert vec.edges_sampled == sim.edges_sampled
        assert vec.edges_touched + vec.edges_skipped == m
        assert sim.edges_touched + sim.edges_skipped == m

    def test_sv_iteration_parity(self, two_cliques):
        vec = engine.run("sv", two_cliques)
        sim = engine.run(
            "sv",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=2)),
        )
        assert vec.iterations >= 1
        assert sim.iterations >= 1
        assert vec.edges_processed % two_cliques.num_directed_edges == 0


class TestBackendValidation:
    def test_vectorized_only_algorithm_rejects_simulated(self, mixed_graph):
        backend = SimulatedBackend(SimulatedMachine(2))
        with pytest.raises(ConfigurationError, match="does not support"):
            engine.run("sequential", mixed_graph, backend=backend)

    def test_error_names_supported_backends(self, mixed_graph):
        backend = SimulatedBackend(SimulatedMachine(2))
        with pytest.raises(ConfigurationError, match="vectorized"):
            engine.run("sequential", mixed_graph, backend=backend)


class TestProvenance:
    def test_result_stamped_with_run_context(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, neighbor_rounds=1)
        assert result.algorithm == "afforest"
        assert result.backend == "vectorized"
        assert result.params["neighbor_rounds"] == 1

    def test_simulated_backend_stamped(self, mixed_graph):
        result = engine.run(
            "sv",
            mixed_graph,
            backend=SimulatedBackend(SimulatedMachine(2)),
        )
        assert result.backend == "simulated"
        assert result.run_stats is not None

    def test_noskip_defaults_recorded(self, mixed_graph):
        result = engine.run("afforest-noskip", mixed_graph)
        assert result.params["skip_largest"] is False
        assert result.largest_label is None


class TestProfiling:
    def test_afforest_phase_keys(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        assert set(result.phase_seconds) == {
            "L0", "C0", "L1", "C1", "F", "H-gather", "H", "C*", "total",
        }
        assert all(s >= 0 for s in result.phase_seconds.values())

    def test_sv_phase_keys(self, mixed_graph):
        result = engine.run("sv", mixed_graph, profile=True)
        labels = set(result.phase_seconds)
        expected = {"total"}
        for i in range(1, result.iterations + 1):
            expected.add(f"H{i}")
            # The converged final iteration skips its trailing compress
            # (the hook pass changed nothing, so π is already flat).
            if i < result.iterations or result.iterations == 1:
                expected.add(f"S{i}")
        assert labels == expected

    def test_total_phase_covers_run(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        phases = dict(result.phase_seconds)
        total = phases.pop("total")
        # Wall time includes every instrumented phase plus dispatch overhead.
        assert total >= max(phases.values())

    def test_uninstrumented_algorithm_gets_total_phase(self, mixed_graph):
        result = engine.run("sequential", mixed_graph, profile=True)
        assert set(result.phase_seconds) == {"total"}

    def test_no_profile_no_phases(self, mixed_graph):
        result = engine.run("afforest", mixed_graph)
        assert result.phase_seconds == {}

    def test_backend_left_disabled_after_profiled_run(self, mixed_graph):
        backend = VectorizedBackend()
        engine.run("afforest", mixed_graph, backend=backend, profile=True)
        assert not backend.tracer.enabled
        second = engine.run("afforest", mixed_graph, backend=backend)
        assert second.phase_seconds == {}


class TestSimulatedPhaseStructure:
    """Engine runs on the simulated machine keep the Fig. 7 phase bands."""

    def test_afforest_simulated_phases(self, mixed_graph):
        machine = SimulatedMachine(3, seed=11)
        result = engine.run(
            "afforest",
            mixed_graph,
            backend=SimulatedBackend(machine),
            neighbor_rounds=2,
        )
        ref = sequential_components(mixed_graph)
        assert equivalent_labelings(result.labels, ref)
        phases = [p.label for p in machine.stats.phases]
        assert phases == ["I", "L0", "C0", "L1", "C1", "F", "H", "C*"]
        assert result.run_stats is machine.stats

    def test_sv_simulated_phases(self, mixed_graph):
        machine = SimulatedMachine(2, seed=4)
        result = engine.run(
            "sv", mixed_graph, backend=SimulatedBackend(machine)
        )
        ref = sequential_components(mixed_graph)
        assert equivalent_labelings(result.labels, ref)
        phases = [p.label for p in machine.stats.phases]
        assert phases[0] == "I"
        # Every iteration contributes a hook + compress phase pair except
        # the converged final one, whose trailing compress is skipped.
        skipped = 1 if result.iterations > 1 else 0
        assert len(phases) == 1 + 2 * result.iterations - skipped

    def test_simulated_runs_deterministic_per_seed(self, two_cliques):
        a = engine.run(
            "afforest",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=9)),
        )
        b = engine.run(
            "afforest",
            two_cliques,
            backend=SimulatedBackend(SimulatedMachine(2, seed=9)),
        )
        assert np.array_equal(a.labels, b.labels)
        assert a.edges_sampled == b.edges_sampled

    def test_vectorized_entry_point_still_returns_counters(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        assert result.edges_touched + result.edges_skipped == \
            mixed_graph.num_directed_edges
        assert result.phase_seconds


GIANT_GRAPHS = {
    "road": lambda: road_network_graph(32, 32, seed=3),
    "ba": lambda: barabasi_albert_graph(1500, 3, seed=4),
}


class TestAfforestBookkeeping:
    """One degree array per run, round gathers inside their ``L<r>``
    span, and a skip count equal to the giant component's slots."""

    @pytest.fixture
    def degree_arrays(self, monkeypatch):
        graphs = []
        degree = CSRGraph.degree

        def counting(graph, v=None):
            if v is None:
                graphs.append(graph)
            return degree(graph, v)

        monkeypatch.setattr(CSRGraph, "degree", counting)
        return graphs

    @pytest.mark.parametrize("sampling", ["first", "random"])
    @pytest.mark.parametrize("backend", ["vectorized", "distributed"])
    def test_degree_array_at_most_once_per_run(
        self, degree_arrays, backend, sampling
    ):
        graph = GIANT_GRAPHS["road"]()
        engine.run("afforest", graph, backend=backend, ranks=2, sampling=sampling)
        assert len(degree_arrays) <= 1

    #: each backend's neighbour-round gather: both take slot r of every
    #: vertex; the distributed backend then splits it among its ranks
    ROUND_GATHER = {
        "vectorized": "round_neighbors",
        "distributed": "round_neighbors",
    }

    @pytest.mark.parametrize("backend", ["vectorized", "distributed"])
    def test_round_gather_inside_link_span(self, monkeypatch, backend):
        tracer = Tracer(True)
        seen = []
        name = self.ROUND_GATHER[backend]
        gather = getattr(backends, name)

        def spy(*args, **kwargs):
            seen.append((args[-1], tracer.current().label))  # (r, span)
            return gather(*args, **kwargs)

        monkeypatch.setattr(backends, name, spy)
        engine.run(
            "afforest",
            GIANT_GRAPHS["road"](),
            backend=backend,
            ranks=2,
            trace=tracer,
        )
        assert seen == [(0, "L0"), (1, "L1")]

    @pytest.mark.parametrize("sampling", ["first", "random"])
    @pytest.mark.parametrize("backend", [VectorizedBackend, DistributedBackend])
    @pytest.mark.parametrize("name", sorted(GIANT_GRAPHS))
    def test_skip_count_is_giant_slots(self, monkeypatch, name, backend, sampling):
        seen = {}
        link_remaining = backend.link_remaining

        def spy(self, pi, graph, start, largest, *, phase):
            seen.update(pi=pi.copy(), start=start, largest=largest)
            return link_remaining(self, pi, graph, start, largest, phase=phase)

        monkeypatch.setattr(backend, "link_remaining", spy)
        graph = GIANT_GRAPHS[name]()
        result = engine.run("afforest", graph, backend=backend(), sampling=sampling)
        pi, start, giant = seen["pi"], seen["start"], seen["largest"]
        expected = sum(
            max(graph.degree(v) - start, 0)
            for v in range(graph.num_vertices)
            if pi[v] == giant
        )
        assert expected > 0
        assert result.edges_skipped == expected


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    core=st.integers(0, 40),
    tail=st.integers(0, 4),
    per_vertex=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
    sort=st.booleans(),
    spare=st.integers(0, 3),
)
def test_round_neighbors_matches_definition(
    data, core, tail, per_vertex, seed, sort, spare
):
    """``round_neighbors(graph, short, r, out=out)[v]`` is ``N(v)[r]``, or
    ``v`` where ``deg[v] <= r``, written into ``out``: on empty graphs,
    graphs ending in ``tail`` isolated vertices (their slots lie past the
    last edge), self-loops, ``r`` up to one past the largest degree or
    one past the number of edges, and
    an ``out`` that arrives filled with -1 as the prefix of a longer
    buffer, as a pool sized by a larger graph hands it out."""
    rng = np.random.default_rng(seed)
    src, dst = rng.integers(0, max(core, 1), size=(2, core * per_vertex))
    graph = build_csr(
        EdgeList(core + tail, src, dst),
        drop_self_loops=False,
        sort_neighbors=sort,
    )
    n = graph.num_vertices
    deg = np.asarray(graph.degree())
    r = data.draw(
        st.integers(0, int(deg.max(initial=0)) + 1)
        | st.integers(0, graph.num_directed_edges + 1)
    )
    buf = np.full(n + spare, -1, dtype=graph.indices.dtype)
    out = buf[:n]
    got = backends.round_neighbors(
        graph, np.flatnonzero(deg <= r), r, out=out
    )
    want = [
        graph.neighbors(v)[r] if deg[v] > r else v
        for v in range(n)
    ]
    assert got.dtype == graph.indices.dtype
    assert n == 0 or np.shares_memory(got, out)
    assert got.tolist() == want
    assert buf[:n].tolist() == want
    assert (buf[n:] == -1).all()
