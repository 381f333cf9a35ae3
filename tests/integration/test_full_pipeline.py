"""Cross-module integration: generators -> algorithms -> analysis."""

import numpy as np
import pytest

import repro
from repro.analysis import (
    convergence_curve,
    equivalent_labelings,
    is_valid_labeling,
    reduce_trace,
)
from repro.core.strategies import neighbor_sampling
from repro.generators import load_dataset
from repro.generators.datasets import CPU_SUITE
from repro.graph.io import load_graph, save_graph
from repro.parallel import MemoryTrace, SimulatedMachine, WorkSpanModel

ALGOS = ["afforest", "afforest-noskip", "sv", "lp", "bfs", "dobfs"]


@pytest.mark.parametrize("dataset", CPU_SUITE)
def test_every_algorithm_on_every_dataset(dataset):
    g = load_dataset(dataset, "tiny")
    ref = repro.sequential_components(g)
    for algorithm in ALGOS:
        labels = repro.connected_components(g, algorithm)
        assert equivalent_labelings(labels, ref), (dataset, algorithm)


@pytest.mark.parametrize("dataset", ["road", "kron", "urand"])
def test_io_roundtrip_then_solve(tmp_path, dataset):
    g = load_dataset(dataset, "tiny")
    path = tmp_path / f"{dataset}.npz"
    save_graph(g, path)
    reloaded = load_graph(path)
    assert equivalent_labelings(
        repro.connected_components(g),
        repro.connected_components(reloaded),
    )


def test_simulated_machine_full_stack():
    """Generator -> simulated Afforest -> trace reduction -> cost model."""
    from repro import engine
    from repro.engine import SimulatedBackend

    g = load_dataset("kron", "tiny")
    trace = MemoryTrace()
    machine = SimulatedMachine(8, trace=trace)
    result = engine.run("afforest", g, backend=SimulatedBackend(machine))
    assert is_valid_labeling(g, result.labels)

    summary = reduce_trace(trace.finalize(), g.num_vertices)
    assert summary.total_events == machine.stats.total_work

    model = WorkSpanModel(tau=1.0, beta=50.0)
    t8 = model.time(machine.stats)
    serial = SimulatedMachine(1)
    engine.run("afforest", g, backend=SimulatedBackend(serial))
    t1 = model.time(serial.stats)
    assert t8 < t1  # parallelism helps


def test_convergence_pipeline_on_dataset():
    g = load_dataset("web", "tiny")
    curve = convergence_curve(
        g, neighbor_sampling(g, 2), strategy_name="neighbor", resolution=15
    )
    assert curve.linkage[-1] == pytest.approx(1.0)


def test_workstats_pipeline():
    from repro.analysis import afforest_workstats, sv_workstats

    g = load_dataset("urand", "tiny")
    sv = sv_workstats(g)
    af = afforest_workstats(g)
    assert af.iterations < sv.iterations


def test_deterministic_end_to_end():
    """The same seed yields bit-identical labels through the whole stack."""
    def run():
        g = load_dataset("twitter", "tiny", seed=3)
        return repro.engine.run("afforest", g, seed=7).labels

    assert np.array_equal(run(), run())
