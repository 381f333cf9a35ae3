"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro import engine
from repro.cli import main
from repro.engine import available_algorithms, backend_kinds
from repro.graph.io import load_graph, write_edge_list


@pytest.fixture
def graph_file(tmp_path, two_cliques):
    path = tmp_path / "g.el"
    write_edge_list(two_cliques, path)
    return str(path)


class TestGenerate:
    def test_writes_file(self, tmp_path, capsys):
        out = str(tmp_path / "kron.npz")
        assert main(["generate", "kron", out, "--size", "tiny"]) == 0
        g = load_graph(out)
        assert g.num_vertices == 1024
        assert "wrote kron/tiny" in capsys.readouterr().out

    def test_seed_changes_output(self, tmp_path):
        a = str(tmp_path / "a.npz")
        b = str(tmp_path / "b.npz")
        main(["--seed", "1", "generate", "urand", a, "--size", "tiny"])
        main(["--seed", "2", "generate", "urand", b, "--size", "tiny"])
        assert load_graph(a) != load_graph(b)


class TestInfo:
    def test_file_input(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices:    8" in out
        assert "components:  2" in out

    def test_dataset_spec(self, capsys):
        assert main(["info", "dataset:urand:tiny"]) == 0
        assert "components:  1" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["info", "/nonexistent/g.el"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_dataset(self, capsys):
        assert main(["info", "dataset:nope"]) == 1
        assert "unknown dataset" in capsys.readouterr().err


class TestSolve:
    def test_default_algorithm(self, graph_file, capsys):
        assert main(["solve", graph_file]) == 0
        assert "afforest: 2 components" in capsys.readouterr().out

    @pytest.mark.parametrize("algo", ["sv", "lp", "bfs", "dobfs"])
    def test_other_algorithms(self, graph_file, algo, capsys):
        assert main(["solve", graph_file, "--algorithm", algo]) == 0
        assert f"{algo}: 2 components" in capsys.readouterr().out

    def test_labels_output(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "labels.npz")
        assert main(["solve", graph_file, "--output", out]) == 0
        labels = np.load(out)["labels"]
        assert labels.shape == (8,)
        assert labels[0] == labels[3]
        assert labels[0] != labels[4]

    def test_unknown_algorithm(self, graph_file, capsys):
        assert main(["solve", graph_file, "--algorithm", "magic"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_distributed_backend(self, graph_file, capsys):
        assert main(
            ["solve", graph_file, "--backend", "distributed", "--ranks", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "afforest [distributed]: 2 components" in out

    def test_simulated_backend(self, graph_file, capsys):
        assert main(["solve", graph_file, "--backend", "simulated"]) == 0
        assert "afforest [simulated]: 2 components" in capsys.readouterr().out

    def test_backend_unsupported_by_algorithm(self, graph_file, capsys):
        assert main(
            ["solve", graph_file, "--algorithm", "sequential",
             "--backend", "simulated"]
        ) == 1
        err = capsys.readouterr().err
        assert "does not support" in err
        assert "vectorized" in err  # message names the supported backends

    def test_frontier_algorithm_on_distributed_backend(self, graph_file, capsys):
        assert main(
            ["solve", graph_file, "--algorithm", "lp",
             "--backend", "distributed", "--ranks", "2"]
        ) == 0
        assert "lp [distributed]: 2 components" in capsys.readouterr().out

    def test_plan_name_via_algorithm_flag(self, graph_file, capsys):
        # A phase pairing is not an algorithm name.
        assert main(["solve", graph_file, "-a", "kout+settle"]) == 1
        assert "unknown algorithm 'kout+settle'" in capsys.readouterr().err

    def test_plan_and_algorithm_conflict(self, graph_file, capsys):
        # --algorithm is the one way to name an algorithm; --plan is no flag.
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", graph_file, "-a", "sv", "--plan", "kout+settle"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --plan" in capsys.readouterr().err

    def test_unknown_plan(self, graph_file, capsys):
        assert main(["solve", graph_file, "-a", "magic+sv"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestPlans:
    def test_lists_matrix(self, capsys):
        # The table: one row per name, with its fixed parameters.
        assert main(["algorithms"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["algorithm", "fixed", "parameters"]
        rows = {line.split()[0]: line.split(None, 1)[1] for line in lines[1:]}
        assert rows["afforest"] == "-"
        assert rows["afforest-noskip"] == "skip_largest=False"
        assert rows["sv"] == "-"
        assert rows["dobfs"] == "alpha=15.0, beta=18.0"
        assert rows["sequential"] == "union-find reference, vectorized only"
        assert sorted(rows) == available_algorithms()

    def test_check_validates_matrix(self, capsys):
        assert main(["algorithms", "--check", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        # Every name but the sequential reference, on every backend.
        checked = (len(engine.ALGORITHMS) - 1) * len(backend_kinds())
        assert checked == 18
        assert f"algorithms check: {checked} algorithm×backend combinations OK" in out

    def test_check_restricted_to_one_backend(self, capsys):
        assert main(
            ["algorithms", "--check", "--backend", "distributed", "--ranks", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "6 algorithm×backend combinations OK" in out


class TestCompare:
    def test_prints_table(self, graph_file, capsys):
        assert main(
            ["compare", graph_file, "--algorithms", "afforest,sv", "--repeats", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "afforest" in out
        assert "sv" in out
        assert "speedup_vs_afforest" in out

    def test_simulated_backend_skips_unsupported(self, graph_file, capsys):
        assert main(
            [
                "compare", graph_file,
                "--algorithms", "afforest,sequential",
                "--backend", "simulated", "--workers", "2",
                "--repeats", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert (
            "note: sequential does not support the simulated backend; skipped"
            in out
        )
        assert "afforest" in out

    def test_all_unsupported_is_an_error(self, graph_file, capsys):
        assert main(
            [
                "compare", graph_file,
                "--algorithms", "sequential",
                "--backend", "simulated",
            ]
        ) == 1
        assert "no requested algorithm" in capsys.readouterr().err

    def test_profile_coverage_counts_top_level_phases(self, capsys):
        # The distributed exchange nests X-merge/X inside L<r>; coverage
        # must count each once.
        assert main(
            [
                "compare", "dataset:web:small",
                "--algorithms", "afforest",
                "--repeats", "1", "--profile",
                "--backend", "distributed", "--ranks", "2",
            ]
        ) == 0
        out = capsys.readouterr().out
        rows = out[out.index("phase breakdown") :].splitlines()[1:]
        total = next(r for r in rows if r.startswith("  total"))
        top = [
            r for r in rows
            if r.startswith("  ") and not r.startswith("   ")
            and not r.startswith(("  total", "  counters"))
        ]
        nested = {r.split()[0] for r in rows if r.startswith("    ")}
        assert {"X-merge", "X"} <= nested
        assert "L0" in {r.split()[0] for r in top}
        top_ms = sum(float(r.split()[1]) for r in top)
        cover = float(total.split("phases cover ")[1].split("%")[0])
        assert cover <= 100.0
        assert cover == pytest.approx(
            100 * top_ms / float(total.split()[1]), abs=0.3
        )
        assert "outside any phase" in total

    def test_trace_out_per_algorithm_files(self, graph_file, tmp_path, capsys):
        base = tmp_path / "cmp.json"
        assert main(
            [
                "compare", graph_file,
                "--algorithms", "afforest,sv",
                "--repeats", "2",
                "--trace-out", str(base),
            ]
        ) == 0
        out = capsys.readouterr().out
        for algo in ("afforest", "sv"):
            path = tmp_path / f"cmp-{algo}.json"
            assert path.exists()
            assert f"trace written to {path}" in out

    def test_trace_out_single_algorithm_exact_path(
        self, graph_file, tmp_path, capsys
    ):
        path = tmp_path / "one.json"
        assert main(
            [
                "compare", graph_file,
                "--algorithms", "afforest",
                "--repeats", "2",
                "--trace-out", str(path),
            ]
        ) == 0
        assert path.exists()


class TestTraceExport:
    def test_solve_writes_chrome_trace(self, graph_file, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        assert main(["solve", graph_file, "--trace-out", str(path)]) == 0
        assert f"trace written to {path} (chrome)" in capsys.readouterr().out
        events = json.loads(path.read_text())
        assert isinstance(events, list)
        assert any(e.get("name") == "total" for e in events)

    def test_solve_jsonl_format(self, graph_file, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(
            [
                "solve", graph_file,
                "--trace-out", str(path),
                "--trace-format", "jsonl",
            ]
        ) == 0
        first = path.read_text().splitlines()[0]
        import json

        assert json.loads(first)["type"] == "meta"

    def test_solve_without_flag_writes_nothing(self, graph_file, tmp_path):
        # tmp_path holds only the input graph written by the fixture.
        assert main(["solve", graph_file]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["g.el"]

    def test_trace_subcommand_renders(self, graph_file, tmp_path, capsys):
        path = tmp_path / "trace.json"
        main(
            [
                "solve", graph_file,
                "--backend", "simulated", "--workers", "2",
                "--trace-out", str(path),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace: afforest [simulated")
        assert "timeline" in out

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestConvert:
    def test_el_to_metis(self, graph_file, tmp_path, capsys):
        out = str(tmp_path / "g.graph")
        assert main(["convert", graph_file, out]) == 0
        original = load_graph(graph_file)
        assert load_graph(out) == original

    def test_dataset_to_file(self, tmp_path):
        out = str(tmp_path / "road.el")
        assert main(["convert", "dataset:road:tiny", out]) == 0
        assert load_graph(out).num_edges > 0


class TestServe:
    """The ``repro serve`` serving-layer subcommand."""

    SERVE = ["serve", "--requests", "30", "--recompress-every", "64"]

    def test_serves_and_reports(self, graph_file, capsys):
        assert main(self.SERVE + [graph_file]) == 0
        out = capsys.readouterr().out
        assert f"served {graph_file}: afforest" in out
        assert "throughput" in out
        assert "p50" in out and "p99" in out
        assert "bit-identical to batch re-solve" in out

    def test_writes_report_and_prometheus(self, graph_file, tmp_path, capsys):
        import json

        report_path = tmp_path / "serve.json"
        prom_path = tmp_path / "serve.prom"
        assert main(
            self.SERVE
            + [graph_file, "--output", str(report_path),
               "--prom-out", str(prom_path)]
        ) == 0
        report = json.loads(report_path.read_text())
        assert report["failures"] == 0
        record = report["records"][0]
        assert record["dataset"] == graph_file
        assert record["matches_oracle"] is True
        assert "# TYPE" in prom_path.read_text()

    def test_no_oracle_skips_verdict(self, graph_file, capsys):
        assert main(self.SERVE + [graph_file, "--no-oracle"]) == 0
        assert "batch re-solve" not in capsys.readouterr().out

    def test_ledger_and_obs_roundtrip(self, graph_file, tmp_path, capsys):
        ledger = str(tmp_path / "serve_ledger.jsonl")
        assert main(self.SERVE + [graph_file, "--ledger", ledger]) == 0
        capsys.readouterr()
        assert main(["obs", "runs", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "serve" in out
        assert "1 record(s)" in out
        assert main(["obs", "show", "latest", "--ledger", ledger]) == 0
        assert "afforest" in capsys.readouterr().out

    def test_serving_reports_diff(self, graph_file, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, seed in ((a, "1"), (b, "2")):
            assert main(
                ["--seed", seed] + self.SERVE
                + [graph_file, "--output", str(path)]
            ) == 0
        assert json.loads(a.read_text())["records"][0]["requests"] == 31
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert graph_file in capsys.readouterr().out

    def test_plan_spec(self, graph_file, capsys):
        assert main(self.SERVE + [graph_file, "-a", "sv"]) == 0
        out = capsys.readouterr().out
        assert f"served {graph_file}: sv on vectorized\n" in out
        assert "(plan" not in out

    def test_dataset_spec(self, capsys):
        assert main(self.SERVE + ["dataset:urand:tiny"]) == 0
        assert "served dataset:urand:tiny" in capsys.readouterr().out


class TestObs:
    """The ``repro obs`` family: runs, show, diff, watch."""

    @pytest.fixture
    def ledger_path(self, tmp_path, two_cliques):
        path = tmp_path / "ledger.jsonl"
        engine.run("sv", two_cliques, profile=True, record=str(path))
        engine.run("lp", two_cliques, profile=True, record=str(path))
        return str(path)

    def test_runs_lists_records(self, ledger_path, capsys):
        assert main(["obs", "runs", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "sv/" in out and "lp/" in out
        assert "2 record(s)" in out

    def test_simulated_solve_shows_its_workers(self, tmp_path, monkeypatch, capsys):
        ledger = str(tmp_path / "led.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", ledger)
        solve = ["solve", "dataset:kron:tiny", "--backend", "simulated"]
        assert main(solve + ["--workers", "3"]) == 0
        assert main(["obs", "show", "latest", "--ledger", ledger]) == 0
        assert "backend:    simulated, workers=3" in capsys.readouterr().out

    def test_distributed_solve_shows_its_ranks(self, tmp_path, monkeypatch, capsys):
        ledger = str(tmp_path / "led.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", ledger)
        solve = ["solve", "dataset:kron:tiny", "--backend", "distributed"]
        assert main(solve + ["--ranks", "3"]) == 0
        edges = int(capsys.readouterr().out.split(" vertices, ")[1].split()[0])
        assert main(["obs", "show", "latest", "--ledger", ledger]) == 0
        out = capsys.readouterr().out
        assert "backend:    distributed, ranks=3\n" in out
        # The record stores the directed count, each edge in both rows.
        assert f" vertices, {2 * edges} directed edges [" in out

    def test_watch_runs_on_the_given_ranks(self, tmp_path, monkeypatch, capsys):
        ledger = str(tmp_path / "led.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", ledger)
        watch = ["obs", "watch", "dataset:kron:tiny", "--backend", "distributed"]
        assert main(watch + ["--ranks", "2"]) == 0
        assert "components in" in capsys.readouterr().out
        assert main(["obs", "show", "latest", "--ledger", ledger]) == 0
        assert "backend:    distributed, ranks=2\n" in capsys.readouterr().out

    def test_runs_empty_ledger(self, tmp_path, capsys):
        empty = str(tmp_path / "none.jsonl")
        assert main(["obs", "runs", "--ledger", empty]) == 0
        assert "no records" in capsys.readouterr().out

    def test_show_latest(self, ledger_path, capsys):
        assert main(["obs", "show", "latest", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "algorithm:  lp" in out
        assert "phases:" in out

    def test_show_prometheus(self, ledger_path, capsys):
        assert main(
            ["obs", "show", "latest", "--ledger", ledger_path, "--prom"]
        ) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert 'algorithm="lp"' in out

    def test_show_ambiguous_prefix_fails(self, ledger_path, capsys):
        assert main(["obs", "show", "r", "--ledger", ledger_path]) == 1
        assert "ambiguous" in capsys.readouterr().err

    def test_diff_two_runs(self, ledger_path, capsys):
        from repro.obs import RunLedger

        ids = [r.run_id for r in RunLedger(ledger_path).records()]
        assert main(
            ["obs", "diff", ids[0], ids[1], "--ledger", ledger_path]
        ) == 0
        out = capsys.readouterr().out
        assert "total" in out

    def test_diff_matrix_and_summary_out(self, tmp_path, ledger_path, capsys):
        import json as _json

        from repro.obs import RunLedger

        records = []
        for rec in RunLedger(ledger_path).records():
            records.append(
                {
                    "dataset": rec.graph.get("digest", "?"),
                    "algorithm": rec.algorithm,
                    "backend": rec.backend,
                    "median_seconds": rec.seconds * 2,
                    "phase_seconds": rec.phase_seconds,
                    "counters": rec.counters,
                }
            )
        report = tmp_path / "report.json"
        report.write_text(_json.dumps({"records": records}), encoding="utf-8")
        summary = tmp_path / "summary.md"
        assert main(
            [
                "obs", "diff", str(report), ledger_path,
                "--summary-out", str(summary),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "sv/" in out  # per-combination summary lines
        text = summary.read_text(encoding="utf-8")
        assert "| run | ratio |" in text

    #: a ledger line as written while records carried a ``plan`` field.
    PLAN_LINE = (
        '{"run_id":"r01a1540e5cac-eeb729","timestamp":1792411589.8,'
        '"kind":"engine.run","algorithm":"lp","plan":"none+lp",'
        '"backend":"vectorized","workers":null,"graph":{"vertices":8,'
        '"edges":12,"digest":"0123456789abcdef"},"seconds":0.0007,'
        '"phase_seconds":{"total":0.0007,"I":0.0001,"P1":0.0002,"P2":0.0001},'
        '"counters":{},"gauges":{"label_dtype_bits":32.0},"histograms":{},'
        '"label_dtype_bits":32,"num_components":2,"env":{"python":"3.11.7"},'
        '"meta":{"workers":null,"ranks":null}}'
    )

    def test_show_and_diff_read_a_record_with_a_plan(
        self, tmp_path, two_cliques, capsys
    ):
        from repro.obs import RunLedger

        path = tmp_path / "ledger.jsonl"
        path.write_text(self.PLAN_LINE + "\n", encoding="utf-8")
        engine.run("lp", two_cliques, profile=True, record=str(path))
        old, new = RunLedger(str(path)).records()
        assert old.algorithm == "lp" and old.num_components == 2
        assert "plan" not in old.to_dict() and "plan" not in new.to_dict()
        ledger = ["--ledger", str(path)]
        assert main(["obs", "show", old.run_id] + ledger) == 0
        out = capsys.readouterr().out
        assert "algorithm:  lp\n" in out and "plan" not in out
        assert main(["obs", "diff", old.run_id, new.run_id] + ledger) == 0
        assert "P1" in capsys.readouterr().out

    def test_diff_mixed_sources_fail(self, ledger_path, capsys):
        assert main(["obs", "diff", ledger_path, "latest"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_watch_streams_rounds(self, graph_file, capsys):
        assert main(["obs", "watch", graph_file, "-a", "sv"]) == 0
        out = capsys.readouterr().out
        assert "round   1" in out
        assert "components in" in out
