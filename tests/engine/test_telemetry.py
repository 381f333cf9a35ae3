"""Engine-level telemetry: traces from real runs, worker spans, overhead.

The unit behaviour of the tracer/metrics/exporters lives in
``tests/obs/``; these tests check what the *engine* records — span trees
from actual pipeline runs, round attributes on iterative phases, and the guarantee that an
untraced run carries no telemetry residue and computes the same labeling.
"""

import json

import numpy as np
import pytest

from repro import engine
from repro.engine import DistributedBackend
from repro.generators.powerlaw import barabasi_albert_graph
from repro.obs import load_trace, render_trace, write_trace


def canon(labels):
    _, inverse = np.unique(labels, return_inverse=True)
    return inverse


class TestProfiledRun:
    def test_trace_attached_and_consistent(self, mixed_graph):
        result = engine.run("afforest", mixed_graph, profile=True)
        trace = result.trace
        assert trace is not None
        assert trace.meta["algorithm"] == "afforest"
        assert trace.meta["backend"] == "vectorized"
        # phase_seconds is exactly the trace's flat view.
        assert result.phase_seconds == trace.phase_seconds()
        assert "total" in result.phase_seconds
        assert result.phase_seconds["total"] > 0

    def test_round_attrs_on_iterative_phases(self, mixed_graph):
        result = engine.run(
            "afforest", mixed_graph, profile=True, neighbor_rounds=2
        )
        spans = {
            (s.name, s.attrs.get("round"), s.attrs.get("final"))
            for s, _ in result.trace.walk()
            if s.track is None
        }
        assert ("L", 0, None) in spans
        assert ("L", 1, None) in spans
        assert ("C", 0, None) in spans
        assert ("C", None, True) in spans  # the final compress, label "C*"

    def test_sv_rounds_match_iterations(self, mixed_graph):
        result = engine.run("sv", mixed_graph, profile=True)
        hook_rounds = sorted(
            s.attrs["round"]
            for s, _ in result.trace.walk()
            if s.name == "H" and s.track is None
        )
        assert hook_rounds == list(range(1, result.iterations + 1))

    def test_caller_owned_tracer(self, mixed_graph):
        from repro.obs import Tracer

        tracer = Tracer(True)
        result = engine.run("afforest", mixed_graph, trace=tracer)
        assert result.trace is not None
        assert result.phase_seconds


class TestUntracedRun:
    """Satellite: disabled telemetry leaves no residue and changes nothing."""

    def test_no_telemetry_keys(self, mixed_graph):
        result = engine.run("afforest", mixed_graph)
        assert result.trace is None
        assert result.phase_seconds == {}
        assert result.counters == {}

    @pytest.mark.parametrize("algorithm", ["afforest", "sv"])
    def test_labeling_equivalence_across_families(self, algorithm):
        graphs = {
            "powerlaw": barabasi_albert_graph(400, edges_per_vertex=3, seed=3),
        }
        from repro.generators.lattice import grid_graph

        graphs["lattice"] = grid_graph(20, 20)
        for name, g in graphs.items():
            plain = engine.run(algorithm, g)
            traced = engine.run(algorithm, g, profile=True)
            assert np.array_equal(
                canon(plain.labels), canon(traced.labels)
            ), f"{algorithm} on {name}: tracing changed the labeling"


class TestDistributedTelemetry:
    def test_untraced_distributed_run_records_nothing(self, mixed_graph):
        backend = DistributedBackend(ranks=2)
        result = engine.run("afforest", mixed_graph, backend=backend)
        assert result.trace is None
        assert result.phase_seconds == {}


class TestChromeExportAcceptance:
    """A profiled afforest exports a valid trace_event array with at
    least one span per pipeline phase, and the file round-trips through
    the ``repro trace`` renderer."""

    def test_export_round_trip(self, tmp_path):
        g = barabasi_albert_graph(3000, edges_per_vertex=4, seed=11)
        result = engine.run("afforest", g, profile=True)
        path = tmp_path / "trace.json"
        write_trace(result.trace, path, format="chrome")

        events = json.loads(path.read_text())
        assert isinstance(events, list)
        complete = [e for e in events if e.get("ph") == "X"]
        labels = {e["name"] for e in complete if e.get("tid") == 0}
        for phase in ("total", "L0", "C0", "F", "H", "C*"):
            assert phase in labels, f"missing phase span {phase}"

        loaded = load_trace(path)
        text = render_trace(loaded)
        assert "afforest" in text
