"""Tests for the CI smoke benchmark and profiled benchmark records."""

import json

import numpy as np
import pytest

from repro.bench.runner import run_algorithm
from repro.bench.smoke import check_against_oracle, main as smoke_main, run_smoke
from repro.generators.powerlaw import barabasi_albert_graph


@pytest.fixture(scope="module")
def small_graph():
    return barabasi_albert_graph(400, edges_per_vertex=3, seed=6)


class TestSmoke:
    def test_oracle_check_accepts_correct_labels(self, small_graph):
        from repro.unionfind import sequential_components

        labels = np.asarray(sequential_components(small_graph))
        assert check_against_oracle(small_graph, labels)

    def test_oracle_check_rejects_wrong_labels(self, small_graph):
        labels = np.zeros(small_graph.num_vertices, dtype=np.int64)
        # A single-component labeling is wrong whenever the graph has >1.
        from repro.unionfind import sequential_components

        ref = np.asarray(sequential_components(small_graph))
        if len(np.unique(ref)) > 1:
            assert not check_against_oracle(small_graph, labels)

    def test_run_smoke_passes_and_reports(self):
        report, failures = run_smoke(repeats=1)
        assert failures == 0
        assert report["failures"] == 0
        combos = {
            (r["dataset"], r["algorithm"], r["backend"])
            for r in report["records"]
            if "backend" in r
        }
        # Full matrix: graphs x algorithms x backends.
        from repro.bench.smoke import (
            SMOKE_ALGORITHMS,
            SMOKE_BACKENDS,
            SMOKE_GRAPHS,
        )

        assert len(combos) == (
            len(SMOKE_GRAPHS) * len(SMOKE_ALGORITHMS) * len(SMOKE_BACKENDS)
        )
        assert len(SMOKE_ALGORITHMS) == 6
        assert all(r.get("matches_oracle", True) for r in report["records"])
        # Plan provenance: each record names the composition that ran.
        plans = {
            (r["dataset"], r["algorithm"]): r["plan"]
            for r in report["records"]
            if "plan" in r
        }
        assert plans[("powerlaw-5k", "afforest")] == "kout+settle"
        assert plans[("lattice-70x70", "fastsv")] == "none+fastsv"
        assert plans[("powerlaw-5k", "kout+sv")] == "kout+sv"

    def test_baseline_compare_flags_semantic_drift(self):
        from repro.bench.smoke import compare_against_baseline

        record = {
            "dataset": "g",
            "algorithm": "afforest",
            "backend": "vectorized",
            "median_seconds": 1.0,
            "num_components": 3,
            "plan": "kout+settle",
        }
        same, _ = compare_against_baseline(
            {"records": [record]}, {"records": [record]}
        )
        assert same == []
        drifted = dict(record, num_components=4, plan="none+lp")
        failures, notes = compare_against_baseline(
            {"records": [drifted]}, {"records": [record]}
        )
        assert len(failures) == 2  # component count + plan choice
        missing, _ = compare_against_baseline(
            {"records": []}, {"records": [record]}
        )
        assert missing and "missing" in missing[0]

    def test_smoke_cli_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = smoke_main(["--repeats", "1", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert report["records"]

    def test_smoke_trace_export(self, tmp_path, capsys):
        from repro.bench.smoke import export_smoke_trace

        path = tmp_path / "smoke-trace.json"
        export_smoke_trace(str(path))
        events = json.loads(path.read_text())
        assert isinstance(events, list)
        names = {e["name"] for e in events if e.get("ph") == "X"}
        assert {"total", "L0", "H", "C*"} <= names


class TestRecordTelemetry:
    def test_profiled_sample_attaches_trace_and_extras(self, small_graph):
        rec = run_algorithm(small_graph, "lp-datadriven", "ba", repeats=2)
        assert rec.trace is not None
        assert rec.extra["phase_seconds"].keys() == rec.trace.phase_seconds().keys()
        assert "frontier_size" in rec.extra["histograms"]
        # Everything in extra (not the trace) must stay JSON-serializable.
        assert json.loads(json.dumps(rec.extra))
