"""Tests for the span tracer, phase labels, and trace views."""

import time

from repro.obs import PhaseLabel, Span, Trace, Tracer, phase_label
from repro.obs.trace import split_label


class TestPhaseLabel:
    def test_is_the_flat_string(self):
        assert phase_label("H", round=2) == "H2"
        assert phase_label("C", final=True) == "C*"
        assert phase_label("L", round=0) == "L0"
        assert phase_label("F") == "F"

    def test_usable_as_dict_key(self):
        d = {phase_label("H", round=1): 0.5}
        assert d["H1"] == 0.5
        assert "H1" in d

    def test_carries_structure(self):
        label = phase_label("H", round=2)
        assert label.base == "H"
        assert label.attrs == {"round": 2}
        final = phase_label("C", final=True)
        assert final.attrs == {"final": True}

    def test_extra_attrs(self):
        label = PhaseLabel("X", round=3, passes=2)
        assert label == "X3"
        assert label.attrs == {"round": 3, "passes": 2}

    def test_split_label(self):
        assert split_label(phase_label("H", round=2)) == ("H", {"round": 2})
        assert split_label("H2") == ("H2", {})


class TestSpan:
    def test_structured_name_from_phase_label(self):
        span = Span(phase_label("L", round=1), 0.0, 1.0)
        assert span.label == "L1"
        assert span.name == "L"
        assert span.attrs == {"round": 1}

    def test_plain_string_label(self):
        span = Span("total", 0.0, 2.5)
        assert span.name == "total"
        assert span.attrs == {}
        assert span.duration == 2.5

    def test_open_span_has_zero_duration(self):
        assert Span("x", 1.0).duration == 0.0


class TestTracer:
    def test_nesting(self):
        tracer = Tracer(True)
        with tracer.span("total"):
            with tracer.span("L0"):
                pass
            with tracer.span("C0"):
                pass
        trace = tracer.finish()
        assert [s.label for s in trace.spans] == ["total"]
        assert [c.label for c in trace.spans[0].children] == ["L0", "C0"]
        assert [(s.label, d) for s, d in trace.walk()] == [
            ("total", 0), ("L0", 1), ("C0", 1),
        ]

    def test_disabled_records_nothing(self):
        tracer = Tracer(False)
        with tracer.span("total"):
            with tracer.span("L0"):
                pass
        tracer.add_span("H", 0.0, 1.0, track="worker-0")
        trace = tracer.finish()
        assert trace.spans == []
        assert trace.counters == {}
        assert trace.histograms == {}

    def test_disabled_span_is_shared_null(self):
        tracer = Tracer(False)
        assert tracer.span("a") is tracer.span("b")

    def test_add_span_attaches_under_open_span(self):
        tracer = Tracer(True)
        with tracer.span("H"):
            tracer.add_span("H", 0.0, 1.0, track="worker-0", block=3)
        trace = tracer.finish()
        (child,) = trace.spans[0].children
        assert child.track == "worker-0"
        assert child.attrs["block"] == 3

    def test_finish_closes_dangling_spans(self):
        # A crashed run can leave spans open; finish() must stamp them.
        tracer = Tracer(True)
        span = Span("total", time.perf_counter())
        tracer._roots.append(span)
        tracer._stack.append(span)
        trace = tracer.finish()
        assert trace.spans[0].t1 is not None

    def test_finish_stamps_meta_and_metrics(self):
        tracer = Tracer(True)
        tracer.metrics.counter("hits").inc(3)
        trace = tracer.finish(algorithm="afforest", backend="process")
        assert trace.meta == {"algorithm": "afforest", "backend": "process"}
        assert trace.counters == {"hits": 3}

    def test_span_durations_are_wall_time(self):
        tracer = Tracer(True)
        with tracer.span("total"):
            time.sleep(0.01)
        trace = tracer.finish()
        assert trace.spans[0].duration >= 0.009


class TestTraceViews:
    def _trace(self):
        root = Span("total", 0.0, 10.0)
        root.children = [
            Span(phase_label("H", round=1), 0.0, 4.0),
            Span(phase_label("H", round=2), 4.0, 6.0),
            Span(phase_label("S", round=1), 6.0, 7.0),
        ]
        root.children[0].children = [
            Span("H1", 0.5, 3.5, track="worker-0"),
            Span("H1", 0.5, 1.5, track="worker-1"),
        ]
        return Trace([root], counters={"n": 1})

    def test_phase_seconds_accumulates_and_skips_workers(self):
        seconds = self._trace().phase_seconds()
        assert seconds["total"] == 10.0
        # H1 + H2 under distinct labels; worker spans excluded.
        assert seconds["H1"] == 4.0
        assert seconds["H2"] == 2.0
        assert seconds["S1"] == 1.0

    def test_round_attr_on_iterative_spans(self):
        trace = self._trace()
        rounds = {
            s.label: s.attrs.get("round")
            for s, _ in trace.walk()
            if s.name in ("H", "S") and s.track is None
        }
        assert rounds == {"H1": 1, "H2": 2, "S1": 1}

    def test_worker_spans_and_tracks(self):
        trace = self._trace()
        assert len(trace.worker_spans()) == 2
        assert trace.tracks() == ["worker-0", "worker-1"]

    def test_bounds(self):
        trace = self._trace()
        assert trace.t0 == 0.0
        assert trace.t1 == 10.0
        assert trace.num_spans() == 6

    def test_dict_round_trip(self):
        trace = self._trace()
        rebuilt = Trace.from_dict(trace.to_dict())
        assert rebuilt.to_dict() == trace.to_dict()
        assert rebuilt.phase_seconds() == trace.phase_seconds()
        assert rebuilt.tracks() == trace.tracks()
        assert rebuilt.counters == {"n": 1}

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.phase_seconds() == {}
        assert trace.t0 == 0.0 and trace.t1 == 0.0
