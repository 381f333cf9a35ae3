"""The sampling × finish plan space: composition, equivalence, selection.

PR 6's acceptance bar: every composed ``<sampling>+<finish>`` plan must
produce the exact component-minimum labeling on every backend (the same
bit-identical contract the monolithic pipelines carried), the canonical
algorithm names must keep routing to their historical compositions, and
the ``auto`` meta-algorithm must pick different plans for diameter-bound
versus skew-bound graphs and record the decision in the trace.
"""

import numpy as np
import pytest

from repro import engine
from repro.engine import DistributedBackend, Plan, PlanRegistry, SimulatedBackend
from repro.engine.auto import (
    DIAMETER_THRESHOLD,
    FALLBACK_PLAN,
    SKEW_THRESHOLD,
    select_plan,
)
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

#: legacy registry name -> the composition it must keep resolving to.
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


class TestPlanRegistry:
    def test_full_matrix_size(self):
        names = engine.available_plans()
        composable = [f for f in FINISHES.values() if not f.whole_graph]
        whole = [f for f in FINISHES.values() if f.whole_graph]
        assert len(names) == len(SAMPLINGS) * len(composable) + len(whole)
        assert names == sorted(names)

    def test_plan_names_round_trip(self):
        for name in engine.available_plans():
            plan = engine.get_plan(name)
            assert isinstance(plan, Plan)
            assert plan.name == name
            assert plan.description.strip()

    def test_canonical_aliases_resolve(self):
        for alias, composed in CANONICAL.items():
            assert engine.CANONICAL_PLANS[alias] == composed
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
        registry = PlanRegistry()
        for finish in ("bfs", "dobfs"):
            assert f"none+{finish}" in engine.available_plans()
            for sampling in SAMPLINGS:
                if sampling == "none":
                    continue
                with pytest.raises(ConfigurationError, match="whole-graph"):
                    registry.compose(sampling, finish)

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
        result = engine.run(graph, plan=plan)
        assert np.array_equal(result.labels, _component_minima(graph))
        assert result.plan == plan

    @pytest.mark.parametrize("plan", engine.available_plans())
    def test_simulated_matches_component_minima(self, plan):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(
            graph, plan=plan, backend=SimulatedBackend(SimulatedMachine(3, seed=7))
        )
        assert np.array_equal(result.labels, _component_minima(graph))

    @pytest.mark.parametrize("plan", engine.available_plans())
    def test_dist_matches_component_minima(self, plan, distributed_backend):
        graph = component_fraction_graph(200, 0.3, seed=5)
        result = engine.run(graph, plan=plan, backend=distributed_backend)
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
            graph,
            plan=CANONICAL[alias],
            **engine.get_algorithm(alias).defaults,
        )
        assert np.array_equal(legacy.labels, composed.labels)
        assert np.array_equal(legacy.labels, _component_minima(graph))
        assert legacy.plan == CANONICAL[alias]

    def test_skip_glue_records_largest_and_skips(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run(graph, plan="kout+sv")
        # Giant-component skipping is on by default after real sampling.
        assert result.largest_label is not None
        assert result.edges_skipped > 0
        noskip = engine.run(graph, plan="kout+sv", skip_largest=False)
        assert noskip.edges_skipped == 0
        assert np.array_equal(result.labels, noskip.labels)

    def test_afforest_edge_accounting_preserved(self):
        graph = barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        result = engine.run(graph, plan="kout+settle")
        assert (
            result.edges_sampled + result.edges_final + result.edges_skipped
            == graph.num_directed_edges
        )


class TestRunSugar:
    def test_plan_keyword_positional_graph(self, mixed_graph):
        result = engine.run(mixed_graph, plan="ldd+fastsv")
        assert result.algorithm == "ldd+fastsv"
        assert result.plan == "ldd+fastsv"

    def test_plan_object_accepted(self, mixed_graph):
        plan = engine.get_plan("bfs+lp")
        result = engine.run(graph=mixed_graph, plan=plan)
        assert result.plan == "bfs+lp"

    def test_plan_name_as_algorithm_name(self, mixed_graph):
        result = engine.run("subgraph+settle", mixed_graph)
        assert result.plan == "subgraph+settle"

    def test_name_and_plan_together_rejected(self, mixed_graph):
        with pytest.raises(ConfigurationError, match="not both"):
            engine.run("sv", mixed_graph, plan="kout+sv")


class TestAutoSelection:
    def test_lattice_picks_diameter_plan(self):
        plan, probes = select_plan(grid_graph(16, 16))
        assert plan == "none+fastsv"
        assert probes["diameter"] > DIAMETER_THRESHOLD

    def test_powerlaw_picks_sampling_plan(self):
        plan, probes = select_plan(
            barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        )
        assert plan == "kout+settle"
        assert probes["skew"] >= SKEW_THRESHOLD

    def test_trivial_graph_falls_back(self, empty_graph, isolated_vertices):
        for g in (empty_graph, isolated_vertices):
            plan, probes = select_plan(g)
            assert plan == FALLBACK_PLAN
            assert probes == {"trivial": True}

    def test_auto_runs_differ_by_topology(self):
        lattice = engine.run("auto", grid_graph(16, 16))
        powerlaw = engine.run(
            "auto", barabasi_albert_graph(400, edges_per_vertex=4, seed=3)
        )
        assert lattice.plan != powerlaw.plan
        assert lattice.algorithm == powerlaw.algorithm == "auto"
        for result, graph in (
            (lattice, grid_graph(16, 16)),
            (powerlaw, barabasi_albert_graph(400, edges_per_vertex=4, seed=3)),
        ):
            assert np.array_equal(result.labels, _component_minima(graph))

    def test_auto_records_decision_in_trace(self):
        result = engine.run("auto", grid_graph(16, 16), profile=True)
        assert result.trace is not None
        spans = {span.name: span for span, _ in result.trace.walk()}
        assert spans["auto"].attrs["plan"] == result.plan == "none+fastsv"
        assert spans["auto"].attrs["diameter"] > DIAMETER_THRESHOLD
        probe_kinds = {
            span.attrs["probe"]
            for span, _ in result.trace.walk()
            if span.name == "probe"
        }
        assert probe_kinds == {"degree", "diameter"}
        assert result.counters["probe_diameter"] > DIAMETER_THRESHOLD

    def test_auto_forwards_only_accepted_params(self):
        # kout+settle accepts seed; none+fastsv does not — auto must not
        # explode when the probe picks a plan that ignores a parameter.
        graph = grid_graph(16, 16)
        result = engine.run("auto", graph, seed=42)
        assert result.plan == "none+fastsv"
        assert np.array_equal(result.labels, _component_minima(graph))
