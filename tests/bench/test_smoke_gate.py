"""The smoke benchmark's baseline comparison and CI perf gate.

Pure-JSON tests: every case builds small report/baseline dicts (or tmp
files for the CLI paths) instead of running benchmarks, so the gate
semantics — semantic drift always fails, timing fails only past the
threshold, missing files diagnose instead of raising — are pinned
without timing noise.
"""

from __future__ import annotations

import json

from repro.bench.smoke import (
    compare_against_baseline,
    gate_summary_markdown,
    main,
)


def _record(
    dataset="powerlaw-5k",
    algorithm="fastsv",
    backend="vectorized",
    median=0.010,
    components=3,
    **extra,
):
    rec = {
        "dataset": dataset,
        "algorithm": algorithm,
        "backend": backend,
        "median_seconds": median,
        "num_components": components,
        "matches_oracle": True,
    }
    rec.update(extra)
    return rec


def _report(*records, failures=0):
    return {"python": "3.12.0", "failures": failures, "records": list(records)}


class TestCompareAgainstBaseline:
    def test_matching_reports_pass(self):
        base = _report(_record())
        now = _report(_record(median=0.011))
        failures, notes = compare_against_baseline(now, base)
        assert failures == []
        assert any("1.10x" in n for n in notes)

    def test_slowdown_is_note_without_threshold(self):
        base = _report(_record(median=0.010))
        now = _report(_record(median=0.030))
        failures, notes = compare_against_baseline(now, base)
        assert failures == []
        assert any("3.00x" in n for n in notes)

    def test_slowdown_fails_past_threshold(self):
        base = _report(_record(median=0.010))
        now = _report(_record(median=0.030))
        failures, _ = compare_against_baseline(
            now, base, fail_threshold=1.25
        )
        assert len(failures) == 1
        assert "3.00x" in failures[0] and "threshold" in failures[0]

    def test_slowdown_within_threshold_passes(self):
        base = _report(_record(median=0.010))
        now = _report(_record(median=0.012))
        failures, _ = compare_against_baseline(
            now, base, fail_threshold=1.25
        )
        assert failures == []

    def test_missing_combination_always_fails(self):
        base = _report(_record(), _record(algorithm="sv"))
        now = _report(_record())
        failures, _ = compare_against_baseline(now, base)
        assert any("missing from this run" in f for f in failures)

    def test_component_drift_always_fails(self):
        base = _report(_record(components=3))
        now = _report(_record(components=4))
        failures, _ = compare_against_baseline(now, base)
        assert any("num_components" in f for f in failures)

    def test_plan_drift_always_fails(self):
        base = _report(_record(algorithm="afforest", plan="kout+settle"))
        now = _report(_record(algorithm="afforest", plan="none+fastsv"))
        failures, _ = compare_against_baseline(now, base)
        assert any("plan" in f for f in failures)

    def test_new_combination_is_a_note(self):
        base = _report(_record())
        now = _report(_record(), _record(algorithm="fastsv-new"))
        failures, notes = compare_against_baseline(now, base)
        assert failures == []
        assert any("new combination" in n for n in notes)

    def test_timing_failure_carries_attribution(self):
        base = _report(_record(
            median=0.010,
            phase_seconds={"HS3": 0.002, "total": 0.010},
            counters={"rounds_skipped": 4},
        ))
        now = _report(_record(
            median=0.030,
            phase_seconds={"HS3": 0.020, "total": 0.030},
            counters={"rounds_skipped": 0},
        ))
        failures, _ = compare_against_baseline(
            now, base, fail_threshold=1.25
        )
        assert len(failures) == 1
        # The gate names the regressed phase and the moved counter so
        # the CI log explains the failure, not just reports it.
        assert "HS3" in failures[0]
        assert "rounds_skipped 4→0" in failures[0]

    def test_timing_failure_without_phases_degrades(self):
        base = _report(_record(median=0.010))
        now = _report(_record(median=0.030))
        failures, _ = compare_against_baseline(
            now, base, fail_threshold=1.25
        )
        assert len(failures) == 1
        assert "threshold" in failures[0]

    def test_scaling_records_ignored(self):
        base = _report(
            _record(),
            {"dataset": "powerlaw-5k", "algorithm": "afforest",
             "worker_scaling": {"1": 0.01}},
        )
        failures, _ = compare_against_baseline(_report(_record()), base)
        assert failures == []


class TestGateSummaryMarkdown:
    def test_contains_table_and_verdict(self):
        base = _report(_record(median=0.010))
        now = _report(
            _record(median=0.008, iterations=5, rounds_skipped=1,
                    bytes_allocated=4096)
        )
        md = gate_summary_markdown(now, base, [], [], fail_threshold=1.25)
        assert "## Smoke perf gate" in md
        assert "**passed**" in md
        assert "| powerlaw-5k | fastsv | vectorized |" in md
        assert "0.80x" in md
        assert "4096" in md

    def test_failures_render_as_regressions(self):
        base = _report(_record())
        now = _report(_record(median=0.050))
        failures, notes = compare_against_baseline(
            now, base, fail_threshold=1.25
        )
        md = gate_summary_markdown(
            now, base, failures, notes, fail_threshold=1.25
        )
        assert "**FAILED**" in md
        assert "### Regressions" in md

    def test_attribution_table_for_comparable_runs(self):
        base = _report(_record(
            median=0.010,
            phase_seconds={"HS3": 0.002, "total": 0.010},
            counters={"rounds_skipped": 4},
        ))
        now = _report(_record(
            median=0.030,
            phase_seconds={"HS3": 0.020, "total": 0.030},
            counters={"rounds_skipped": 0},
        ))
        md = gate_summary_markdown(now, base, [], [], fail_threshold=1.25)
        assert "### Regression attribution" in md
        assert "HS3" in md
        assert "rounds_skipped 4→0" in md

    def test_attribution_section_absent_without_baseline_pairs(self):
        base = _report(_record(algorithm="other"))
        now = _report(_record())
        md = gate_summary_markdown(now, base, [], [], fail_threshold=1.25)
        assert "_no comparable runs_" in md or "attribution" not in md


class TestGateCli:
    """``--gate-report`` re-gates a saved report without benchmarking."""

    def _write(self, path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_gate_passes_and_writes_summary(self, tmp_path, capsys):
        report = self._write(tmp_path / "r.json", _report(_record()))
        baseline = self._write(tmp_path / "b.json", _report(_record()))
        summary = tmp_path / "summary.md"
        rc = main([
            "--gate-report", report, "--baseline", baseline,
            "--fail-threshold", "1.25", "--summary-out", str(summary),
        ])
        assert rc == 0
        assert "## Smoke perf gate" in summary.read_text(encoding="utf-8")

    def test_gate_fails_on_regression(self, tmp_path, capsys):
        report = self._write(
            tmp_path / "r.json", _report(_record(median=0.050))
        )
        baseline = self._write(
            tmp_path / "b.json", _report(_record(median=0.010))
        )
        rc = main([
            "--gate-report", report, "--baseline", baseline,
            "--fail-threshold", "1.25",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "baseline regression" in err

    def test_gate_carries_oracle_failures_from_report(self, tmp_path):
        report = self._write(
            tmp_path / "r.json", _report(_record(), failures=2)
        )
        baseline = self._write(tmp_path / "b.json", _report(_record()))
        rc = main(["--gate-report", report, "--baseline", baseline])
        assert rc == 1

    def test_gate_requires_baseline(self, tmp_path, capsys):
        report = self._write(tmp_path / "r.json", _report(_record()))
        rc = main(["--gate-report", report])
        assert rc == 2
        assert "--baseline" in capsys.readouterr().err

    def test_missing_baseline_file_diagnosed(self, tmp_path, capsys):
        report = self._write(tmp_path / "r.json", _report(_record()))
        rc = main([
            "--gate-report", report,
            "--baseline", str(tmp_path / "nope.json"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "baseline file not found" in err
        assert "Traceback" not in err

    def test_missing_report_file_diagnosed(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "b.json", _report(_record()))
        rc = main([
            "--gate-report", str(tmp_path / "nope.json"),
            "--baseline", baseline,
        ])
        assert rc == 1
        assert "report file not found" in capsys.readouterr().err

    def test_corrupt_baseline_diagnosed(self, tmp_path, capsys):
        report = self._write(tmp_path / "r.json", _report(_record()))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main([
            "--gate-report", report, "--baseline", str(bad),
        ])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_non_object_baseline_diagnosed(self, tmp_path, capsys):
        report = self._write(tmp_path / "r.json", _report(_record()))
        arr = tmp_path / "arr.json"
        arr.write_text("[1, 2]", encoding="utf-8")
        rc = main([
            "--gate-report", report, "--baseline", str(arr),
        ])
        assert rc == 1
        assert "not a JSON report object" in capsys.readouterr().err
