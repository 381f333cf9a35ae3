"""Tests for the top-level public API."""

import dataclasses
import importlib
import inspect
import io
import pydoc

import numpy as np
import pytest

import repro
from repro.analysis import equivalent_labelings
from repro.errors import ConfigurationError
from repro.graph.io import read_edge_list
from repro.obs.ledger import RunRecord

ALGORITHMS = [
    "afforest",
    "afforest-noskip",
    "sv",
    "lp",
    "bfs",
    "dobfs",
    "sequential",
]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_all_algorithms_on_mixed(algorithm, mixed_graph):
    ref = repro.sequential_components(mixed_graph)
    labels = repro.connected_components(mixed_graph, algorithm)
    assert equivalent_labelings(labels, ref)


def test_sv_on_distributed_backend(mixed_graph):
    ref = repro.sequential_components(mixed_graph)
    labels = repro.connected_components(
        mixed_graph, "sv", backend="distributed", ranks=4
    )
    assert equivalent_labelings(labels, ref)


def test_default_is_afforest(mixed_graph):
    a = repro.connected_components(mixed_graph)
    b = repro.connected_components(mixed_graph, "afforest")
    assert np.array_equal(a, b)


def test_unknown_algorithm():
    g = repro.from_edge_list([(0, 1)])
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        repro.connected_components(g, "magic")


def test_kwargs_forwarded(mixed_graph):
    labels = repro.connected_components(
        mixed_graph, "afforest", neighbor_rounds=1, sample_size=8
    )
    ref = repro.sequential_components(mixed_graph)
    assert equivalent_labelings(labels, ref)


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_docstring_flow():
    g = repro.generators.kronecker_graph(scale=8)
    labels = repro.connected_components(g)
    result = repro.engine.run("afforest", g, neighbor_rounds=2)
    assert labels.shape[0] == g.num_vertices
    assert result.num_components >= 1


def test_removed_surface_rejected(mixed_graph, capsys):
    """``engine.run`` is the one way in: the per-algorithm shims, the
    modules nothing reached, SV's ``shortcut`` knob, the FastSV and
    data-driven LP finishes, ``<sampling>+<finish>`` names, the
    engine's ``Instrumentation`` shim, the plan layer (``Plan``, the
    phase specs, the sampling and finish packages, the recorded ``plan``
    field), the ``repro plans`` command, the out-of-core edge-list path,
    the helpers that only their own tests called, the distributed
    backend's ``hash`` edge layout (its ``partition`` keyword) and the
    backends' ``close`` are gone."""
    for module in (
        "repro.baselines",
        "repro.core.afforest",
        "repro.serve.cache",
        "repro.parallel.atomics",
        "repro.graph.subgraph",
        "repro.analysis.efficiency",
        "repro.engine.instrumentation",
        "repro.engine.plan",
        "repro.engine.phase",
        "repro.engine.sampling",
        "repro.engine.finish",
        "repro.distributed.partition",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    assert "Instrumentation" not in repro.engine.__all__
    for name in ("Plan", "CANONICAL_PLANS", "get_plan", "run_plan"):
        assert name not in repro.engine.__all__
        assert not hasattr(repro.engine, name)
    import repro.engine.afforest as afforest_module

    assert inspect.ismodule(afforest_module)
    for record_type in (repro.engine.CCResult, RunRecord):
        assert "plan" not in {f.name for f in dataclasses.fields(record_type)}
    assert not hasattr(repro.engine.run("sv", mixed_graph), "plan")
    assert not hasattr(repro.serve.ConnectivityService(mixed_graph), "plan")
    for kind in repro.engine.backend_kinds():
        backend = repro.engine.make_backend(kind, workers=2, ranks=2)
        for name in ("instr", "bind", "record_frontier", "close"):
            assert not hasattr(backend, name)
    with pytest.raises(TypeError, match="partition"):
        repro.engine.DistributedBackend(2, partition="block")
    assert not hasattr(repro.obs.Tracer, "phase_seconds")
    removed = {
        "afforest",
        "AfforestResult",
        "bfs_cc",
        "dobfs_cc",
        "label_propagation",
        "label_propagation_datadriven",
        "shiloach_vishkin",
    }
    assert removed.isdisjoint(repro.__all__)
    with pytest.raises(ConfigurationError, match="accepted: .*track_depth"):
        repro.engine.run("sv", mixed_graph, shortcut="single")
    for name in (
        "fastsv",
        "lp-datadriven",
        "kout+sv",
        "kout+lp",
        "none+settle",
        "kout+settle",
        "none+sv",
    ):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            repro.engine.run(name, mixed_graph)
    for name in ("available_plans", "describe_plans"):
        assert not hasattr(repro.engine, name)
    from repro.cli import main

    assert main(["solve", "dataset:kron:tiny", "-a", "kout+sv"]) == 1
    assert "unknown algorithm 'kout+sv'" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["compare", "dataset:kron:tiny", "--plans"])
    with pytest.raises(SystemExit):
        main(["plans"])
    with pytest.raises(TypeError, match="chunk_edges"):
        read_edge_list(io.StringIO("0 1\n"), chunk_edges=1)
    for owner, names in {
        "repro.graph.io": ["iter_edge_list_chunks", "build_csr_streaming"],
        "repro.engine.partition": ["hash_owners"],
        "repro.engine.backends": ["PARTITION_MODES"],
        "repro.nputil": ["expand_slices"],
        "repro.core.spanning_forest": ["spanning_forest_size"],
        "repro.graph.csr.CSRGraph": ["iter_edges"],
        "repro.graph.coo.EdgeList": ["permuted"],
        "repro.analysis.memaccess.AccessSummary": ["combined_histogram"],
        "repro.obs.diff.RunDiff": ["regressed"],
        "repro.parallel.machine.SimulatedMachine": ["reset_stats"],
        "repro.parallel.memtrace.MemoryTrace": ["current_phase"],
        "repro.parallel.metrics.RunStats": [
            "total_cas_failures",
            "total_reads",
            "total_writes",
        ],
    }.items():
        found = pydoc.locate(owner)
        assert found is not None, owner
        for name in names:
            assert not hasattr(found, name), f"{owner}.{name}"
