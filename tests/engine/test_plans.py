"""The name table: lookup, parameter checks and equivalence.

Every name in :data:`~repro.engine.ALGORITHMS` must produce the exact
component-minimum labeling on every backend and run exactly its function
with its fixed parameters; each function checks its own parameters, and
no other name may resolve.
"""

import numpy as np
import pytest

from repro import engine
from repro.engine import (
    DistributedBackend,
    SimulatedBackend,
    VectorizedBackend,
    afforest,
    hooking,
    propagation,
    traversal,
)
from repro.errors import ConfigurationError
from repro.generators.components import component_fraction_graph
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components

#: parallel algorithm name -> the function it runs.
CANONICAL = {
    "afforest": afforest.afforest,
    "afforest-noskip": afforest.afforest,
    "sv": hooking.sv,
    "lp": propagation.lp,
    "bfs": traversal.bfs,
    "dobfs": traversal.dobfs,
}

#: test id -> the algorithm name it runs.  Ids name an algorithm by its
#: phases, ``<sampling>+<final phase>`` with ``none`` for no sampling;
#: the two Afforest names share ``kout+settle``.
PLANS = {
    "kout+settle": "afforest",
    "none+bfs": "bfs",
    "none+dobfs": "dobfs",
    "none+lp": "lp",
    "none+sv": "sv",
}

#: every parameter check an algorithm carries, as (key, refused value).
CHECKS = [
    ("neighbor_rounds", -1),
    ("sample_size", 0),
    ("sampling", "middle"),
    ("alpha", 0),
    ("beta", float("nan")),
]


def _family_graphs() -> list[tuple[str, CSRGraph]]:
    return [
        ("powerlaw", barabasi_albert_graph(400, edges_per_vertex=4, seed=3)),
        ("lattice", grid_graph(16, 16)),
        ("multi-component", component_fraction_graph(300, 0.25, seed=11)),
        ("empty", from_edge_list([], num_vertices=0)),
        ("singleton", from_edge_list([], num_vertices=1)),
    ]


def _component_minima(graph: CSRGraph) -> np.ndarray:
    """Expected labeling: every vertex labeled by its component's minimum."""
    n = graph.num_vertices
    ref = np.asarray(sequential_components(graph))
    if n == 0:
        return ref
    minima = np.full(n, n, dtype=np.int64)
    np.minimum.at(minima, ref, np.arange(n, dtype=np.int64))
    return minima[ref]


@pytest.fixture(scope="module", params=[1, 2, 4])
def distributed_backend(request):
    """One backend per rank count, shared across this module."""
    return DistributedBackend(ranks=request.param)


class TestPlanTable:
    def test_table_size(self):
        assert len(engine.ALGORITHMS) == 7  # the six and ``sequential``
        assert sorted(PLANS) == [
            "kout+settle",
            "none+bfs",
            "none+dobfs",
            "none+lp",
            "none+sv",
        ]

    def test_plan_names_round_trip(self):
        for name in PLANS.values():
            entry = engine.ALGORITHMS[name]
            assert isinstance(entry, engine.Algorithm)
            assert entry.fn is CANONICAL[name]

    def test_canonical_aliases_resolve(self):
        assert sorted(engine.ALGORITHMS) == sorted([*CANONICAL, "sequential"])
        for alias, fn in CANONICAL.items():
            assert engine.ALGORITHMS[alias].fn is fn
            assert engine.supports_backend(alias, "distributed")

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.supports_backend("magic+sv", "vectorized")

    def test_unknown_finish_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.supports_backend("kout+magic", "vectorized")

    def test_malformed_name_rejected(self):
        for bad in ("kout", "kout+sv+lp", "justaname"):
            with pytest.raises(ConfigurationError):
                engine.supports_backend(bad, "vectorized")

    def test_whole_graph_finishes_compose_only_with_none(self):
        # The traversals take no sampling parameter, and no name pairs
        # them with sampling.
        for finish in ("bfs", "dobfs"):
            assert "neighbor_rounds" not in engine.ALGORITHMS[finish].accepted
            with pytest.raises(ConfigurationError, match="unknown algorithm"):
                engine.supports_backend(f"kout+{finish}", "vectorized")

    def test_unknown_parameter_rejected(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="bogus"):
            engine.run("afforest", mixed_graph, bogus=1)
        with pytest.raises(TypeError, match="bogus"):
            afforest.afforest(mixed_graph, VectorizedBackend(), bogus=1)

    def test_parameters_routed_to_phases(self, mixed_graph):
        result = afforest.afforest(
            mixed_graph,
            VectorizedBackend(),
            neighbor_rounds=3,
            skip_largest=False,
        )
        assert result.neighbor_rounds == 3
        assert result.edges_skipped == 0

    @pytest.mark.parametrize("name", sorted(engine.ALGORITHMS))
    def test_each_algorithm_checks_its_own_parameters(self, name, mixed_graph):
        """An unknown keyword fails in ``engine.run``; every check a name
        carries fails there on an empty graph and in a direct call of its
        function on a non-empty one."""
        empty = from_edge_list([], num_vertices=0)
        with pytest.raises(
            ConfigurationError, match="does not accept parameter 'bogus'"
        ):
            engine.run(name, empty, bogus=1)
        entry = engine.ALGORITHMS[name]
        carried = [(k, v) for k, v in CHECKS if k in entry.accepted]
        for key, value in carried:
            with pytest.raises(ConfigurationError, match=key):
                engine.run(name, empty, **{key: value})
            with pytest.raises(ConfigurationError, match=key):
                entry.fn(mixed_graph, VectorizedBackend(), **{key: value})
        expected = {"afforest": 3, "afforest-noskip": 3, "dobfs": 2}
        assert len(carried) == expected.get(name, 0)


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_vectorized_matches_component_minima(self, plan, family, graph):
        result = engine.run(PLANS[plan], graph)
        assert np.array_equal(result.labels, _component_minima(graph))
        assert result.algorithm == PLANS[plan]

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_simulated_matches_component_minima(self, plan):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(
            PLANS[plan],
            graph,
            backend=SimulatedBackend(SimulatedMachine(3, seed=7)),
        )
        assert np.array_equal(result.labels, _component_minima(graph))

    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_dist_matches_component_minima(self, plan, distributed_backend):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(PLANS[plan], graph, backend=distributed_backend)
        assert np.array_equal(result.labels, _component_minima(graph))

    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("alias", sorted(CANONICAL))
    def test_canonical_names_bit_identical_to_compositions(
        self, alias, family, graph
    ):
        """A name runs exactly its function with its fixed params."""
        entry = engine.ALGORITHMS[alias]
        legacy = engine.run(alias, graph)
        composed = entry.fn(graph, VectorizedBackend(), **entry.params)
        assert np.array_equal(legacy.labels, composed.labels)
        assert np.array_equal(legacy.labels, _component_minima(graph))
        assert legacy.params == dict(entry.params)
        for counter in ("edges_skipped", "edges_processed", "iterations"):
            assert getattr(legacy, counter) == getattr(composed, counter)

    def test_skip_glue_records_largest_and_skips(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run("afforest", graph)
        # Giant-component skipping is on by default after real sampling.
        assert result.largest_label is not None
        assert result.edges_skipped > 0
        noskip = engine.run("afforest", graph, skip_largest=False)
        assert noskip.largest_label is None
        assert noskip.edges_skipped == 0
        assert np.array_equal(result.labels, noskip.labels)
        # An algorithm that samples nothing has no probe to steer: it
        # refuses the probe's parameters rather than ignoring them.
        for name in ("sv", "lp", "bfs"):
            for key, value in (
                ("skip_largest", True), ("seed", 1), ("sample_size", 8)
            ):
                with pytest.raises(ConfigurationError, match=key):
                    engine.run(name, graph, **{key: value})

    def test_afforest_edge_accounting_preserved(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run("afforest", graph)
        assert (
            result.edges_sampled + result.edges_final + result.edges_skipped
            == graph.num_directed_edges
        )


class TestRunSugar:
    def test_plan_name_as_algorithm_name(self, mixed_graph):
        # A run records its algorithm name and nothing else; a phase
        # pairing is no name.
        result = engine.run("afforest", mixed_graph)
        assert result.algorithm == "afforest"
        assert not hasattr(result, "plan")
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.run("kout+settle", mixed_graph)

    def test_name_and_plan_together_rejected(self, mixed_graph):
        # The name is the only way to pick an algorithm: ``plan=`` is not
        # a keyword, so it is rejected like any unknown parameter.
        with pytest.raises(ConfigurationError, match="'plan'"):
            engine.run("sv", mixed_graph, plan="kout+settle")
