"""Tests for profiled benchmark records."""

import json

import pytest

from repro.bench.runner import run_algorithm
from repro.generators.powerlaw import barabasi_albert_graph


@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert_graph(400, edges_per_vertex=3, seed=6)


class TestRecordTelemetry:
    def test_profiled_sample_attaches_trace_and_extras(self, small_graph):
        rec = run_algorithm(small_graph, "bfs", "ba", repeats=2)
        assert rec.trace is not None
        assert rec.extra["phase_seconds"].keys() == rec.trace.phase_seconds().keys()
        assert "frontier_size" in rec.extra["histograms"]
        # Everything in extra (not the trace) must stay JSON-serializable.
        assert json.loads(json.dumps(rec.extra))
