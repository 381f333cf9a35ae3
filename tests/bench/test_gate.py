"""Tests for the end-to-end performance gate, without timing noise."""

import json
from pathlib import Path

import pytest

from repro.bench import gate

ROOT = Path(__file__).resolve().parents[2]


def _baseline(**workloads):
    return {"seed": 1, "seconds": 2, "size": "full", "workloads": workloads}


def _result(correct=True, **metrics):
    return {
        "correct": correct,
        "failed": 0 if correct else 3,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


class TestCompare:
    def test_ratio_under_limit_passes(self):
        baseline = _baseline(**{"solve-road": {"job_s": 1.0, "setup_s": 2.0}})
        rows, failures, measured = gate.compare(
            baseline, {"solve-road": (0, _result(job_s=1.5, setup_s=1.0))}
        )
        assert failures == []
        assert any("solve-road | job_s" in r and "1.50x" in r for r in rows)
        assert measured == _baseline(
            **{"solve-road": {"job_s": 1.5, "setup_s": 1.0}}
        )

    def test_ratio_over_limit_names_workload_and_metric(self):
        baseline = _baseline(**{"solve-dist": {"job_s": 0.05, "setup_s": 3.5}})
        _, failures, _ = gate.compare(
            baseline, {"solve-dist": (0, _result(job_s=0.13, setup_s=3.5))}
        )
        assert len(failures) == 1
        assert failures[0].startswith("solve-dist job_s:")
        assert f"> {gate.LIMIT}x" in failures[0]

    def test_incorrect_run_fails(self):
        baseline = _baseline(**{"serve-mixed": {"job_s": 1.0}})
        _, failures, _ = gate.compare(
            baseline, {"serve-mixed": (1, _result(correct=False, job_s=1.0))}
        )
        assert "serve-mixed: bench/e2e.py exited 1" in failures
        assert "serve-mixed: 3 failed operations" in failures

    def test_nonzero_exit_fails(self):
        baseline = _baseline(**{"solve-road": {"job_s": 1.0}})
        _, failures, _ = gate.compare(
            baseline, {"solve-road": (2, _result(job_s=1.0))}
        )
        assert failures == ["solve-road: bench/e2e.py exited 2"]

    def test_workload_without_result_fails(self):
        baseline = _baseline(
            **{"solve-road": {"job_s": 1.0}, "solve-dist": {"job_s": 1.0}}
        )
        _, failures, measured = gate.compare(
            baseline,
            {"solve-road": (0, _result(job_s=1.0)), "solve-dist": (1, None)},
        )
        assert "solve-dist: no result" in failures
        assert list(measured["workloads"]) == ["solve-road"]
        _, failures, _ = gate.compare(baseline, {})
        assert "solve-road: no result" in failures

    def test_unmeasured_metric_fails(self):
        baseline = _baseline(**{"solve-road": {"job_ms": 1.0}})
        _, failures, _ = gate.compare(
            baseline, {"solve-road": (0, _result(job_s=1.0))}
        )
        assert failures == ["solve-road job_ms: not measured"]


class TestUnusableBaseline:
    @pytest.mark.parametrize(
        "text,diagnosis",
        [
            (None, "cannot read baseline"),
            ("{not json", "not valid JSON"),
            ("[1, 2]", "is not an object"),
            ('{"seed": 1, "seconds": 2, "size": "full"}', "is not an object"),
            (
                json.dumps(_baseline(**{"solve-road": {"job_s": 0}})),
                "positive value",
            ),
        ],
        ids=["missing", "corrupt", "non-object", "no-workloads", "zero"],
    )
    def test_exits_2_with_diagnosis(self, tmp_path, capsys, text, diagnosis):
        path = tmp_path / "baseline.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert gate.main([str(path)]) == 2
        err = capsys.readouterr().err
        assert diagnosis in err
        assert "Traceback" not in err


class TestSummary:
    """``main``'s stdout, which CI appends to the job summary."""

    def _main(self, monkeypatch, tmp_path, baseline, result):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline), encoding="utf-8")
        monkeypatch.setattr(gate, "run_workload", lambda name, _: (0, result))
        return gate.main([str(path)])

    def test_pass_prints_table_verdict_and_measured_object(
        self, monkeypatch, tmp_path, capsys
    ):
        baseline = _baseline(**{"solve-road": {"job_s": 1.0, "setup_s": 2.0}})
        result = _result(job_s=1.2, setup_s=2.0)
        assert self._main(monkeypatch, tmp_path, baseline, result) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| workload | metric | baseline | now | ratio |"
        assert "| solve-road | job_s | 1 | 1.2 | 1.20x |" in lines
        assert "| solve-road | setup_s | 2 | 2 | 1.00x |" in lines
        assert not any(line.startswith("FAIL") for line in lines)
        assert lines[-2] == f"gate: pass (limit {gate.LIMIT}x the baseline)"
        assert json.loads(lines[-1]) == _baseline(
            **{"solve-road": {"job_s": 1.2, "setup_s": 2.0}}
        )

    def test_failures_print_before_the_fail_verdict(
        self, monkeypatch, tmp_path, capsys
    ):
        baseline = _baseline(**{"solve-dist": {"job_s": 0.05}})
        result = _result(job_s=0.13)
        assert self._main(monkeypatch, tmp_path, baseline, result) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:-1] == [
            f"FAIL solve-dist job_s: 0.05 -> 0.13 (2.60x > {gate.LIMIT}x)",
            f"gate: FAIL (limit {gate.LIMIT}x the baseline)",
        ]
        assert json.loads(lines[-1])["workloads"] == {"solve-dist": {"job_s": 0.13}}


def test_gate_fails_a_tiny_run_against_an_impossible_baseline(tmp_path, capsys):
    """One real ``bench/e2e.py`` subprocess: a 1 ns baseline cannot hold."""
    path = tmp_path / "baseline.json"
    baseline = _baseline(**{"solve-road": {"job_s": 1e-9}})
    baseline.update(seconds=0.2, size="tiny")
    path.write_text(json.dumps(baseline), encoding="utf-8")
    assert gate.main([str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("FAIL solve-road job_s:") for line in lines)
    measured = json.loads(lines[-1])
    assert measured["size"] == "tiny"
    assert measured["workloads"]["solve-road"]["job_s"] > 0


def test_committed_baseline_matches_the_benchmark():
    """``BENCH_e2e.json`` gates exactly BENCHMARK.json's workloads and its
    end-to-end metrics."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = gate.load_baseline(str(ROOT / "BENCH_e2e.json"))
    metrics = [m["name"] for m in benchmark["end_to_end"]]
    assert list(baseline["workloads"]) == [w["name"] for w in benchmark["workloads"]]
    for workload in baseline["workloads"].values():
        assert list(workload) == metrics
    assert gate.E2E == ROOT / "bench" / "e2e.py"
