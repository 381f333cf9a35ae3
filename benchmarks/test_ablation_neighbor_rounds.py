"""Ablation A1 — neighbor_rounds sweep (the paper fixes it to 2, Sec. VI-A).

Sweeping rounds 0..6 on the web and kron proxies shows why: round 0 means
no sampling (skip decided on singletons — useless), rounds 1–2 capture
most linkage at O(|V|) cost, and further rounds add sampled work without
reducing the final phase much.
"""

import pytest

from repro import engine
from repro.bench.report import format_series
from repro.bench.runner import median_time

from conftest import register_report

ROUNDS = [0, 1, 2, 3, 4, 6]


@pytest.fixture(scope="module")
def sweep(suite):
    out = {}
    for dataset in ("web", "kron"):
        g = suite[dataset]
        touched = []
        runtime = []
        for r in ROUNDS:
            res = engine.run("afforest", g, neighbor_rounds=r)
            touched.append(res.edges_touched)
            med, _, _, _ = median_time(
                lambda: engine.run("afforest", g, neighbor_rounds=r), repeats=5
            )
            runtime.append(round(med * 1000, 3))
        out[dataset] = {"edges_touched": touched, "runtime_ms": runtime}
    text = ""
    for dataset, series in out.items():
        text += format_series(
            f"Ablation A1 — neighbor_rounds sweep ({dataset})",
            "rounds",
            ROUNDS,
            series,
        )
        text += "\n\n"
    register_report("ablation a1 neighbor rounds", text.rstrip())
    return out


def test_ablation_rounds_shape(sweep, suite, benchmark):
    for dataset, series in sweep.items():
        touched = series["edges_touched"]
        # Any sampling slashes the touched-edge count relative to rounds=0
        # (where the skip heuristic has nothing to work with).
        assert touched[1] < 0.7 * touched[0], dataset
        assert touched[2] < 0.7 * touched[0], dataset
        # Extra rounds past 2 only add sampled work: the curve through
        # rounds 2..6 grows by ~n per round, it never collapses further.
        assert touched[2] <= 4 * min(touched), dataset
        assert series["runtime_ms"][2] < series["runtime_ms"][0], dataset

    benchmark(lambda: engine.run("afforest", suite["web"], neighbor_rounds=2))
