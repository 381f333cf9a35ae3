"""The sampling × finish plan space: composition and equivalence.

Every composed ``<sampling>+<finish>`` plan must produce the exact
component-minimum labeling on every backend (the same bit-identical
contract the monolithic pipelines carried), and the canonical algorithm
names must keep routing to their historical compositions.
"""

import numpy as np
import pytest

from repro import engine
from repro.engine import DistributedBackend, Plan, SimulatedBackend
from repro.engine.finish import FINISHES
from repro.engine.sampling import SAMPLINGS
from repro.errors import ConfigurationError
from repro.generators.components import component_fraction_graph
from repro.generators.lattice import grid_graph
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph import from_edge_list
from repro.graph.csr import CSRGraph
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components

#: classical name -> the composition it must keep resolving to.
CANONICAL = {
    "afforest": "kout+settle",
    "afforest-noskip": "kout+settle",
    "sv": "none+sv",
    "fastsv": "none+fastsv",
    "lp": "none+lp",
    "lp-datadriven": "none+lp-datadriven",
    "bfs": "none+bfs",
    "dobfs": "none+dobfs",
}


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
    def test_full_matrix_size(self):
        names = engine.available_plans()
        composable = [f for f in FINISHES.values() if not f.whole_graph]
        whole = [f for f in FINISHES.values() if f.whole_graph]
        assert len(names) == len(SAMPLINGS) * len(composable) + len(whole)
        assert sorted(SAMPLINGS) == ["kout", "none"]
        assert len(names) == 12
        assert names == sorted(names)

    def test_plan_names_round_trip(self):
        for name in engine.available_plans():
            plan = engine.get_plan(name)
            assert isinstance(plan, Plan)
            assert plan.name == name
            assert plan.description.strip()

    def test_canonical_aliases_resolve(self):
        assert sorted(engine.CANONICAL_PLANS) == sorted(CANONICAL)
        for alias, composed in CANONICAL.items():
            assert engine.CANONICAL_PLANS[alias][0] == composed
            assert engine.get_plan(alias).name == composed

    def test_unknown_sampling_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sampling"):
            engine.get_plan("magic+sv")

    def test_unknown_finish_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown finish"):
            engine.get_plan("kout+magic")

    def test_malformed_name_rejected(self):
        for bad in ("kout", "kout+sv+lp", "justaname"):
            with pytest.raises(ConfigurationError):
                engine.get_plan(bad)

    def test_whole_graph_finishes_compose_only_with_none(self):
        for finish in ("bfs", "dobfs"):
            assert f"none+{finish}" in engine.available_plans()
            for sampling in SAMPLINGS:
                if sampling == "none":
                    continue
                with pytest.raises(ConfigurationError, match="whole-graph"):
                    engine.get_plan(f"{sampling}+{finish}")

    def test_unknown_parameter_rejected(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="bogus"):
            engine.run_plan("kout+sv", mixed_graph, engine.VectorizedBackend(), bogus=1)

    def test_parameters_routed_to_phases(self, mixed_graph):
        result = engine.run_plan(
            "kout+settle",
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
    @pytest.mark.parametrize("plan", engine.available_plans())
    def test_vectorized_matches_component_minima(self, plan, family, graph):
        result = engine.run(plan, graph)
        assert np.array_equal(result.labels, _component_minima(graph))
        assert result.plan == plan

    @pytest.mark.parametrize("plan", engine.available_plans())
    def test_simulated_matches_component_minima(self, plan):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(
            plan, graph, backend=SimulatedBackend(SimulatedMachine(3, seed=7))
        )
        assert np.array_equal(result.labels, _component_minima(graph))

    @pytest.mark.parametrize("plan", engine.available_plans())
    def test_dist_matches_component_minima(self, plan, distributed_backend):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(plan, graph, backend=distributed_backend)
        assert np.array_equal(result.labels, _component_minima(graph))

    @pytest.mark.parametrize(
        "family,graph", _family_graphs(), ids=lambda v: v if isinstance(v, str) else ""
    )
    @pytest.mark.parametrize("alias", sorted(CANONICAL))
    def test_canonical_names_bit_identical_to_compositions(
        self, alias, family, graph
    ):
        legacy = engine.run(alias, graph)
        composed = engine.run(
            CANONICAL[alias], graph, **engine.get_plan(alias).params
        )
        assert np.array_equal(legacy.labels, composed.labels)
        assert np.array_equal(legacy.labels, _component_minima(graph))
        assert legacy.plan == CANONICAL[alias]

    def test_skip_glue_records_largest_and_skips(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run("kout+sv", graph)
        # Giant-component skipping is on by default after real sampling.
        assert result.largest_label is not None
        assert result.edges_skipped > 0
        noskip = engine.run("kout+sv", graph, skip_largest=False)
        assert noskip.edges_skipped == 0
        assert np.array_equal(result.labels, noskip.labels)

    def test_afforest_edge_accounting_preserved(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run("kout+settle", graph)
        assert (
            result.edges_sampled + result.edges_final + result.edges_skipped
            == graph.num_directed_edges
        )


class TestRunSugar:
    def test_plan_name_as_algorithm_name(self, mixed_graph):
        result = engine.run("kout+sv", mixed_graph)
        assert result.algorithm == "kout+sv"
        assert result.plan == "kout+sv"

    def test_name_and_plan_together_rejected(self, mixed_graph):
        # The name is the only way to pick a plan: ``plan=`` is not a
        # keyword, so it is rejected like any unknown parameter.
        with pytest.raises(ConfigurationError, match="'plan'"):
            engine.run("sv", mixed_graph, plan="kout+sv")

