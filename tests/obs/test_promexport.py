"""Tests for Prometheus text exposition (repro.obs.promexport)."""

from repro.obs.ledger import RunRecord
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import prometheus_lines, render_prometheus
from repro.obs.trace import Span, Trace


class TestCountersAndGauges:
    def test_counter_lines(self):
        lines = prometheus_lines(counters={"rounds_skipped": 4})
        assert "# TYPE repro_rounds_skipped_total counter" in lines
        assert "repro_rounds_skipped_total 4" in lines

    def test_gauge_lines(self):
        lines = prometheus_lines(gauges={"probe_seconds": 0.25})
        assert "# TYPE repro_probe_seconds gauge" in lines
        assert "repro_probe_seconds 0.25" in lines

    def test_integer_valued_floats_collapse(self):
        lines = prometheus_lines(gauges={"bits": 32.0})
        assert "repro_bits 32" in lines

    def test_labels_attached_to_every_sample(self):
        lines = prometheus_lines(
            counters={"c": 1},
            gauges={"g": 2.5},
            labels={"algorithm": "sv", "backend": "process"},
        )
        samples = [ln for ln in lines if not ln.startswith("#")]
        for sample in samples:
            assert 'algorithm="sv"' in sample
            assert 'backend="process"' in sample

    def test_label_values_escaped(self):
        lines = prometheus_lines(counters={"c": 1}, labels={"x": 'a"b\\c'})
        sample = next(ln for ln in lines if not ln.startswith("#"))
        assert r"a\"b\\c" in sample

    def test_names_sanitised_to_grammar(self):
        lines = prometheus_lines(counters={"edges/sec-peak": 7})
        assert "repro_edges_sec_peak_total 7" in lines

    def test_custom_namespace(self):
        lines = prometheus_lines(counters={"c": 1}, namespace="cc")
        assert "cc_c_total 1" in lines


class TestHistograms:
    def test_cumulative_buckets(self):
        summary = {
            "count": 10,
            "sum": 42.0,
            "buckets": {"1.0": 3, "10.0": 5, "+inf": 2},
        }
        lines = prometheus_lines(histograms={"frontier": summary})
        assert "# TYPE repro_frontier histogram" in lines
        assert 'repro_frontier_bucket{le="1"} 3' in lines
        # Cumulative: the le="10" bucket includes the le="1" population.
        assert 'repro_frontier_bucket{le="10"} 8' in lines
        assert 'repro_frontier_bucket{le="+Inf"} 10' in lines
        assert "repro_frontier_sum 42" in lines
        assert "repro_frontier_count 10" in lines

    def test_non_mapping_summary_skipped(self):
        lines = prometheus_lines(histograms={"bad": "oops"})
        assert lines == []


class TestRenderPrometheus:
    def test_from_trace_with_provenance(self):
        trace = Trace(
            [Span("total", 0.0, 1.0)],
            counters={"c": 1},
            gauges={"g": 2.0},
            meta={"algorithm": "sv", "backend": "vectorized"},
        )
        text = render_prometheus(trace)
        assert 'repro_c_total{algorithm="sv",backend="vectorized"} 1' in text
        assert text.endswith("\n")

    def test_from_run_record_includes_run_id(self):
        rec = RunRecord(
            run_id="rff-01",
            algorithm="sv",
            backend="process",
            counters={"c": 3},
            meta={"dataset": "lattice"},
        )
        text = render_prometheus(rec)
        assert 'dataset="lattice"' in text
        assert 'run_id="rff-01"' in text

    def test_from_registry(self):
        metrics = MetricsRegistry(True)
        metrics.counter("edges").inc(12)
        metrics.gauge("skew").set(1.5)
        text = render_prometheus(metrics)
        assert "repro_edges_total 12" in text
        assert "repro_skew 1.5" in text

    def test_from_mapping(self):
        text = render_prometheus({"counters": {"c": 1}, "gauges": {}})
        assert "repro_c_total 1" in text

    def test_caller_labels_override_provenance(self):
        rec = RunRecord(run_id="r1", algorithm="sv", counters={"c": 1})
        text = render_prometheus(rec, labels={"algorithm": "other"})
        assert 'algorithm="other"' in text

    def test_empty_source_renders_empty(self):
        assert render_prometheus({}) == ""
