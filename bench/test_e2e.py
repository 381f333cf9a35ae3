"""Tests for the end-to-end benchmark's own code, on tiny inputs.

Run from the repository root with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import e2e

W = e2e.import_checkout()
import e2e_trace  # noqa: E402  (needs the checkout's repro on sys.path)
import repro.engine  # noqa: E402
from repro.obs.export import load_trace  # noqa: E402
from repro.obs.render import render_trace  # noqa: E402

BENCHMARK = json.loads((e2e.ROOT / "BENCHMARK.json").read_text())


def run_main(capsys, workload: str, trace: int = 0, seed: int = 3):
    code = e2e.main([
        "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    ])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        e2e.WORKLOAD_NAMES
    )
    assert set(W.WORKLOADS) == set(e2e.WORKLOAD_NAMES)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(
        e2e.END_TO_END_UNITS
    )
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(
        e2e_trace.LAYER_METRICS
    )


@pytest.mark.parametrize("workload", e2e.WORKLOAD_NAMES)
def test_tiny_run_end_to_end(capsys, workload):
    code, result, _ = run_main(capsys, workload)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= e2e.MIN_JOBS + 1
    for metric in BENCHMARK["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert set(result["metrics"]) == set(e2e.END_TO_END_UNITS)


@pytest.mark.parametrize("workload", e2e.WORKLOAD_NAMES)
def test_tiny_traced_run_reports_layers(capsys, workload):
    code, result, out = run_main(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(e2e_trace.LAYER_METRICS)
    assert metrics["engine.oracle_s"] > 0
    if workload == "file-powerlaw":
        assert 0 < metrics["graph.io.parse_self_s"] < metrics[
            "graph.io.read_edge_list_s"
        ]
        assert metrics["graph.io.edges_parsed"] > 0
        assert metrics["serve.service.epochs"] == 1
    if workload in ("solve-road", "solve-dist"):
        assert metrics["engine.run_s"] > 0 and metrics["engine.sampling_s"] > 0
    if workload == "solve-dist":
        assert metrics["distributed.exchange_s"] > 0
        assert 0 < metrics["distributed.bytes_vs_bound"] <= 1
    if workload == "serve-mixed":
        assert metrics["serve.service.epochs"] > 1
        assert metrics["serve.server.coalesce_ratio"] >= 1
    if workload != "serve-mixed":
        # The layer spans cover the job: the rest is the harness's own
        # bookkeeping between calls.
        assert metrics["trace.coverage"] > 0.8
    path = next(
        line.split(" written to ")[1].split(" (")[0]
        for line in out.splitlines()
        if line.startswith("trace: ")
    )
    assert "job" in render_trace(load_trace(path))


@pytest.mark.parametrize("workload", e2e.WORKLOAD_NAMES)
def test_wrong_label_fails_the_run(capsys, monkeypatch, workload):
    real_run = repro.engine.run

    def corrupted(*args, **kwargs):
        result = real_run(*args, **kwargs)
        labels = result.labels.copy()
        last = labels.shape[0] - 1
        # Vertex 0 always carries min-label 0, so both choices are roots
        # and the damaged labeling stays a valid parent forest.
        labels[last] = last if labels[last] != last else 0
        result.labels = labels
        return result

    monkeypatch.setattr(repro.engine, "run", corrupted)
    code, result, out = run_main(capsys, workload)
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    frac = float(out.split("ops_failed_frac ")[1].split()[0])
    assert frac > 0


@pytest.mark.parametrize("workload", e2e.WORKLOAD_NAMES)
def test_same_seed_same_inputs(tmp_path, workload):
    def facts(seed: int) -> dict:
        wl = W.WORKLOADS[workload](seed, "tiny", tmp_path)
        try:
            wl.setup()
            return wl.input_facts()
        finally:
            wl.close()

    first = facts(5)
    assert facts(5) == first
    assert facts(6)["input_digest"] != first["input_digest"]


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(e2e.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        e2e.ROOT / "bench", tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "bench/e2e.py", "--workload", "solve-road",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".bench_work").exists()
