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
from repro.analysis import equivalent_labelings
from repro.engine import DistributedBackend, VectorizedBackend
from repro.generators.powerlaw import barabasi_albert_graph
from repro.obs import (
    Counter,
    Gauge,
    HeartbeatEvent,
    Histogram,
    Span,
    load_trace,
    render_trace,
    write_trace,
)


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

    def test_reused_tracer_leaves_earlier_trace_alone(self):
        from repro.errors import ConfigurationError
        from repro.generators import kronecker_graph
        from repro.obs import Tracer

        tracer = Tracer(True)
        graph = kronecker_graph(scale=9, seed=0)
        first = engine.run("afforest", graph, trace=tracer)
        spans = first.trace.num_spans()
        assert spans > 1
        with pytest.raises(ConfigurationError, match="fresh Tracer"):
            engine.run("afforest", graph, trace=tracer)
        assert first.trace.num_spans() == spans

    @pytest.mark.parametrize("held", ["span", "counter", "gauge", "histogram"])
    def test_refused_tracer_and_backend_left_as_they_were(self, held, mixed_graph):
        """A tracer holding a span or an instrument is refused before the
        run touches it or the backend."""
        from repro.errors import ConfigurationError
        from repro.obs import Tracer

        tracer = Tracer(True)
        if held == "span":
            with tracer.span("job"):
                pass
        elif held == "histogram":
            tracer.metrics.histogram("job_size").observe(3)
        else:
            getattr(tracer.metrics, held)("jobs")
        before = (
            [s.label for s, _ in tracer.finish().walk()],
            tracer.metrics.counters_snapshot(),
            tracer.metrics.gauges_snapshot(),
            tracer.metrics.histogram_summaries(),
        )
        backend = VectorizedBackend()
        state = dict(vars(backend))
        events = []
        with pytest.raises(ConfigurationError, match="already holds"):
            engine.run(
                "afforest", mixed_graph, backend=backend, trace=tracer,
                heartbeat=events,
            )
        after = (
            [s.label for s, _ in tracer.finish().walk()],
            tracer.metrics.counters_snapshot(),
            tracer.metrics.gauges_snapshot(),
            tracer.metrics.histogram_summaries(),
        )
        assert after == before
        assert vars(backend).keys() == state.keys()
        assert all(vars(backend)[k] is v for k, v in state.items())
        assert backend.pool._buffers == {} and events == []


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


class TestReusedBackend:
    """A backend reused across runs carries nothing from an earlier run,
    whether that run finished or raised mid-phase.  The plain run is a
    direct call of ``afforest`` on the backend as ``engine.run`` left it:
    ``engine.run`` itself hands the backend a fresh tracer and heartbeat
    first."""

    @pytest.mark.parametrize(
        "make",
        [VectorizedBackend, lambda: DistributedBackend(ranks=2)],
        ids=["vectorized", "distributed"],
    )
    def test_plain_run_records_nowhere(self, mixed_graph, monkeypatch, make):
        from repro.obs import Tracer

        backend = make()
        profiled = []
        engine.run(
            "afforest", mixed_graph, backend=backend, profile=True,
            heartbeat=profiled,
        )
        assert profiled

        compress = backend.compress
        raised = []

        def compress_failing_once(pi, *, phase):
            if phase == "C0" and not raised:
                raised.append(phase)
                raise RuntimeError("compress failed")
            return compress(pi, phase=phase)

        monkeypatch.setattr(backend, "compress", compress_failing_once)
        failed = []
        tracer = Tracer(True)
        with pytest.raises(RuntimeError, match="compress failed"):
            engine.run(
                "afforest", mixed_graph, backend=backend, trace=tracer,
                heartbeat=failed,
            )
        assert [e.phase for e in failed] == []

        def recorded():
            return (
                len(profiled),
                len(failed),
                tracer.finish().num_spans(),
                tracer.metrics.counters_snapshot(),
            )

        before = recorded()
        plain = engine.ALGORITHMS["afforest"].fn(mixed_graph, backend)
        assert recorded() == before
        assert plain.trace is None
        assert plain.phase_seconds == {}
        ref = engine.run("sequential", mixed_graph)
        assert equivalent_labelings(plain.labels, ref.labels)


class TestDisabledTelemetry:
    """An unprofiled run without a heartbeat costs nothing: it builds no
    span, counter, gauge, histogram or heartbeat event on any backend."""

    TELEMETRY = (Span, Counter, Gauge, Histogram, HeartbeatEvent)

    @pytest.fixture
    def constructed(self, monkeypatch):
        made = []
        for cls in self.TELEMETRY:

            def spy(obj, *args, _init=cls.__init__, **kwargs):
                made.append(type(obj).__name__)
                _init(obj, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        return made

    @pytest.mark.parametrize("kind", ["vectorized", "simulated", "distributed"])
    def test_unprofiled_run_constructs_nothing(self, mixed_graph, constructed, kind):
        for name in engine.available_algorithms():
            if engine.supports_backend(name, kind):
                engine.run(name, mixed_graph, backend=kind, workers=2, ranks=2)
        assert constructed == []
        # The spies see what a profiled run with a heartbeat builds.
        engine.run(
            "sv", mixed_graph, backend=kind, workers=2, ranks=2,
            profile=True, heartbeat=[],
        )
        assert {"Span", "Counter", "Gauge", "HeartbeatEvent"} <= set(constructed)


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
