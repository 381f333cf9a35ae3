"""End-to-end performance gate: ``python -m repro.bench.gate BENCH_e2e.json``.

Runs every workload the baseline names through ``bench/e2e.py --trace 0``
in a subprocess, at the baseline's ``seed``, ``seconds`` and ``size``.  The
gate fails (exit 1) when a run exits non-zero, reports ``"correct":
false`` or leaves no result, or when an end-to-end metric exceeds
``LIMIT`` times its baseline value.  It prints one baseline/now/ratio row
per workload and metric, then each failure; its last line is the measured
object in the baseline's shape, so refreshing the baseline is a copy of
that line.  An unusable baseline exits 2.

To attribute a failure, rerun the named workload with ``--trace 1`` on
both commits and compare the two trace files with ``repro obs diff``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

__all__ = ["LIMIT", "compare", "load_baseline", "main", "run_workload"]

#: A metric fails above this multiple of its baseline.  Ten seed-1 runs of
#: each workload spread by at most 1.70x (max/min) on a 2-core x86-64
#: machine, while reverting the O(batch) serving writes or the distributed
#: exchange without ``np.unique`` costs 5.2x or 2.8x in ``job_s``.
LIMIT = 2.0

E2E = Path(__file__).resolve().parents[3] / "bench" / "e2e.py"
RUN_KEYS = ("seed", "seconds", "size")


def load_baseline(path: str) -> dict:
    """The baseline at ``path``; ``ValueError`` with a diagnosis if unusable."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"cannot read baseline {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from None
    # bench/e2e.py validates the values of seed, seconds and size itself.
    try:
        workloads = data["workloads"]
        values = [v for metrics in workloads.values() for v in metrics.values()]
        valid = all(key in data for key in RUN_KEYS)
    except (KeyError, TypeError, AttributeError):
        valid, values = False, []
    if not valid or not all(isinstance(v, (int, float)) and v > 0 for v in values):
        raise ValueError(
            f"baseline {path} is not an object of seed, seconds, size and "
            "workloads -> metric -> positive value"
        )
    return data


def run_workload(name: str, baseline: dict) -> tuple[int, dict | None]:
    """One ``bench/e2e.py`` run: its exit code and last-line JSON object."""
    argv = [sys.executable, str(E2E), "--workload", name, "--trace", "0"]
    argv += [f"--{key}={baseline[key]}" for key in RUN_KEYS]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def compare(baseline: dict, results: dict) -> tuple[list[str], list[str], dict]:
    """Table rows, failures and the measured object.

    ``results`` maps a workload to ``(exit code, result)`` as
    :func:`run_workload` returns them.
    """
    rows = [
        "| workload | metric | baseline | now | ratio |",
        "|---|---|---:|---:|---:|",
    ]
    failures: list[str] = []
    measured: dict = {key: baseline[key] for key in RUN_KEYS}
    measured["workloads"] = {}
    for name, metrics in baseline["workloads"].items():
        code, result = results.get(name, (None, None))
        if code:
            failures.append(f"{name}: bench/e2e.py exited {code}")
        if result is None:
            failures.append(f"{name}: no result")
            continue
        if not result.get("correct"):
            failures.append(f"{name}: {result.get('failed')} failed operations")
        now: dict[str, float] = {}
        measured["workloads"][name] = now
        for metric, base in metrics.items():
            value = result.get("metrics", {}).get(metric, {}).get("value")
            if value is None:
                failures.append(f"{name} {metric}: not measured")
                continue
            now[metric] = float(f"{value:.4g}")
            ratio = value / base
            rows.append(
                f"| {name} | {metric} | {base:.4g} | {value:.4g} | {ratio:.2f}x |"
            )
            if ratio > LIMIT:
                failures.append(
                    f"{name} {metric}: {base:.4g} -> {value:.4g} "
                    f"({ratio:.2f}x > {LIMIT}x)"
                )
    return rows, failures, measured


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: 0 on pass, 1 on a failure, 2 on an unusable baseline."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gate",
        description="gate the bench/e2e.py workloads against a committed baseline",
    )
    parser.add_argument("baseline", help="committed baseline (BENCH_e2e.json)")
    path = parser.parse_args(argv).baseline
    try:
        baseline = load_baseline(path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = {name: run_workload(name, baseline) for name in baseline["workloads"]}
    rows, failures, measured = compare(baseline, results)
    print("\n".join(rows) + "\n")
    for line in failures:
        print(f"FAIL {line}")
    print(f"gate: {'FAIL' if failures else 'pass'} (limit {LIMIT}x the baseline)")
    print(json.dumps(measured))
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
