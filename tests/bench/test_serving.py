"""Tests for ``repro serve`` sessions and their epoch oracle."""

import json

import numpy as np
import pytest

from repro.bench import serving
from repro.generators import uniform_random_graph


@pytest.fixture
def small_graph():
    return uniform_random_graph(300, num_edges=400, seed=8)


class TestWorkload:
    def test_deterministic_for_a_seed(self):
        a = serving.build_workload(np.random.default_rng(5), 100, 50)
        b = serving.build_workload(np.random.default_rng(5), 100, 50)
        assert len(a) == len(b) == 50
        for op_a, op_b in zip(a, b):
            assert op_a[0] == op_b[0]
            assert all(
                np.array_equal(x, y) for x, y in zip(op_a[1:], op_b[1:])
            )

    def test_mix_fractions(self):
        ops = serving.build_workload(
            np.random.default_rng(6), 100, 300,
            query_frac=0.5, size_frac=0.3,
        )
        kinds = [op[0] for op in ops]
        assert 100 < kinds.count("same") < 200
        assert 50 < kinds.count("sizes") < 130
        assert kinds.count("update") > 30

    def test_vertices_in_range(self):
        ops = serving.build_workload(np.random.default_rng(7), 50, 40)
        for op in ops:
            for arr in op[1:]:
                assert arr.min() >= 0
                assert arr.max() < 50


class TestDriveSession:
    def test_record_shape_and_oracle(self, small_graph):
        record, service = serving.drive_session(
            small_graph, "tiny",
            requests=60, recompress_every=128, seed=5,
        )
        assert record["dataset"] == "tiny"
        assert record["backend"] == service.backend_kind
        assert record["requests"] == 61  # workload + closing refresh
        assert record["matches_oracle"] is True
        assert record["oracle_epochs"] >= 1
        assert record["median_seconds"] >= 0
        assert record["p99_ms"] >= record["p50_ms"] >= 0
        assert record["throughput_rps"] > 0
        assert record["counters"]["serve_requests"] == 61

    def test_counts_requests_not_calls(self, small_graph):
        # 32-edge bursts against recompress_every=64: every second burst
        # publishes, several times inside one drained batch of 128.
        record, _ = serving.drive_session(
            small_graph, "tiny", requests=400, recompress_every=64,
            update_edges=32, max_batch=128, seed=5,
        )
        ops = serving.build_workload(
            np.random.default_rng(5), small_graph.num_vertices, 400,
            update_edges=32,
        )
        updates = sum(op[0] == "update" for op in ops)
        assert record["counters"]["serve_updates"] == updates
        assert record["edges_inserted"] == 32 * updates
        assert record["matches_oracle"] is True
        assert record["epochs"] > 2

    def test_ledger_records_session(self, small_graph, tmp_path):
        from repro.obs.ledger import RunLedger

        ledger = tmp_path / "ledger.jsonl"
        record, _ = serving.drive_session(
            small_graph, "tiny", requests=20, ledger=str(ledger), seed=5,
        )
        entries = RunLedger(ledger).records()
        assert len(entries) == 1
        assert entries[0].kind == "serve"
        assert record["run_id"] == entries[0].run_id

    def test_oracle_off_skips_verdict(self, small_graph):
        record, _ = serving.drive_session(
            small_graph, "tiny", requests=20, oracle=False, seed=5,
        )
        assert "matches_oracle" not in record


class TestRunServing:
    """Whole ``repro serve`` runs."""

    def test_report_shape(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "serving.json"
        argv = ["serve", "dataset:urand:tiny", "--requests", "40"]
        assert cli_main(argv + ["--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["kind"] == "serving"
        assert [r["dataset"] for r in report["records"]] == ["dataset:urand:tiny"]
        assert "req/s" in capsys.readouterr().out

    def test_main_writes_report(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        out = tmp_path / "serving.json"
        argv = ["--seed", "5", "serve", "dataset:urand:tiny", "--requests", "40"]
        assert cli_main(argv + ["--output", str(out)]) == 0
        assert f"report written to {out}" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["failures"] == 0
        assert report["records"][0]["matches_oracle"] is True

    def test_main_fails_on_oracle_mismatch(self, monkeypatch, capsys):
        from repro.cli import main as cli_main

        monkeypatch.setattr(
            serving, "verify_epochs", lambda service, epochs: (False, 1)
        )
        assert cli_main(["serve", "dataset:urand:tiny", "--requests", "20"]) == 1
        assert "oracle" in capsys.readouterr().err

    def test_reports_diff_through_obs(self, tmp_path, capsys):
        """Two ``repro serve --output`` reports flow through ``repro obs
        diff`` (matrix mode)."""
        from repro.cli import main as cli_main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            argv = ["serve", "dataset:urand:tiny", "--requests", "40"]
            assert cli_main(argv + ["--output", str(path)]) == 0
        capsys.readouterr()
        assert cli_main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "dataset:urand:tiny/afforest" in out
