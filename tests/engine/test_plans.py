"""The plan table: name lookup and equivalence.

Every plan in :data:`~repro.engine.plan.CANONICAL_PLANS` must produce the
exact component-minimum labeling on every backend, every algorithm name
must keep recording its plan's name, and no other name may resolve.
"""

import numpy as np
import pytest

from repro import engine
from repro.engine import DistributedBackend, Plan, SimulatedBackend
from repro.engine.sampling import NONE
from repro.errors import ConfigurationError
from repro.generators.components import component_fraction_graph
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components

#: algorithm name -> the plan name it must keep recording.
CANONICAL = {
    "afforest": "kout+settle",
    "afforest-noskip": "kout+settle",
    "sv": "none+sv",
    "lp": "none+lp",
    "bfs": "none+bfs",
    "dobfs": "none+dobfs",
}

#: plan name -> an algorithm name that runs it.
PLANS = {plan: name for name, plan in reversed(CANONICAL.items())}


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
        assert len(engine.CANONICAL_PLANS) == 6
        assert sorted(PLANS) == [
            "kout+settle",
            "none+bfs",
            "none+dobfs",
            "none+lp",
            "none+sv",
        ]

    def test_plan_names_round_trip(self):
        for plan_name, name in PLANS.items():
            plan = engine.get_plan(name)
            assert isinstance(plan, Plan)
            assert plan.name == plan_name

    def test_canonical_aliases_resolve(self):
        assert sorted(engine.CANONICAL_PLANS) == sorted(CANONICAL)
        for alias, composed in CANONICAL.items():
            assert engine.CANONICAL_PLANS[alias].name == composed
            assert engine.get_plan(alias).name == composed

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.get_plan("magic+sv")

    def test_unknown_finish_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.get_plan("kout+magic")

    def test_malformed_name_rejected(self):
        for bad in ("kout", "kout+sv+lp", "justaname"):
            with pytest.raises(ConfigurationError):
                engine.get_plan(bad)

    def test_whole_graph_finishes_compose_only_with_none(self):
        for finish in ("bfs", "dobfs"):
            assert engine.get_plan(finish).sampling is NONE
            assert engine.get_plan(finish).finish.whole_graph
            with pytest.raises(ConfigurationError, match="unknown algorithm"):
                engine.get_plan(f"kout+{finish}")

    def test_unknown_parameter_rejected(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="bogus"):
            engine.run_plan(
                "afforest", mixed_graph, engine.VectorizedBackend(), bogus=1
            )

    def test_parameters_routed_to_phases(self, mixed_graph):
        result = engine.run_plan(
            "afforest",
            mixed_graph,
            engine.VectorizedBackend(),
            neighbor_rounds=3,
            skip_largest=False,
        )
        assert result.neighbor_rounds == 3
        assert result.edges_skipped == 0


class TestPlanEquivalence:
    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("plan", sorted(PLANS))
    def test_vectorized_matches_component_minima(self, plan, family, graph):
        result = engine.run(PLANS[plan], graph)
        assert np.array_equal(result.labels, _component_minima(graph))
        assert result.plan == plan

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
        """A name runs exactly its plan's two phases and fixed params."""
        plan = engine.get_plan(alias)
        legacy = engine.run(alias, graph)
        composed = engine.run_plan(
            Plan(plan.sampling, plan.finish),
            graph,
            engine.VectorizedBackend(),
            **plan.params,
        )
        assert np.array_equal(legacy.labels, composed.labels)
        assert np.array_equal(legacy.labels, _component_minima(graph))
        assert legacy.plan == composed.plan == CANONICAL[alias]

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
        # A plan that samples nothing has no glue to steer: it refuses
        # the glue's parameters rather than ignoring them.
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
        # A plan's name is what a run records, not a name it accepts.
        result = engine.run("afforest", mixed_graph)
        assert result.algorithm == "afforest"
        assert result.plan == "kout+settle"
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            engine.run("kout+settle", mixed_graph)

    def test_name_and_plan_together_rejected(self, mixed_graph):
        # The name is the only way to pick a plan: ``plan=`` is not a
        # keyword, so it is rejected like any unknown parameter.
        with pytest.raises(ConfigurationError, match="'plan'"):
            engine.run("sv", mixed_graph, plan="kout+settle")
