"""Ablation A5 — first-k vs random neighbour sampling.

Sec. VI-A: "For random neighbor sampling, we use the graph file structure
by choosing the first appearing neighbors of each vertex.  This choice is
beneficial since the processed edges can be easily tracked to avoid
reprocessing."  This ablation quantifies both halves of that sentence:
convergence quality of the two modes is comparable, but the random mode's
untrackable slots force the final phase to reprocess every edge.
"""

import pytest

from repro import engine
from repro.bench.report import format_table
from repro.bench.runner import median_time

from conftest import register_report

DATASETS = ("web", "kron", "urand")


@pytest.fixture(scope="module")
def table(suite):
    rows = []
    data = {}
    for name in DATASETS:
        g = suite[name]
        first = engine.run("afforest", g, sampling="first")
        rand = engine.run("afforest", g, sampling="random")
        t_first, _, _, _ = median_time(
            lambda: engine.run("afforest", g, sampling="first"), repeats=5
        )
        t_rand, _, _, _ = median_time(
            lambda: engine.run("afforest", g, sampling="random"), repeats=5
        )
        data[name] = (first, rand)
        rows.append(
            [
                name,
                first.edges_touched,
                rand.edges_touched,
                round(rand.edges_touched / max(first.edges_touched, 1), 2),
                round(t_first * 1000, 3),
                round(t_rand * 1000, 3),
            ]
        )
    text = format_table(
        "Ablation A5 — first-k vs random neighbour sampling",
        ["dataset", "first_touched", "random_touched", "ratio", "first_ms", "random_ms"],
        rows,
    )
    register_report("ablation a5 sampling mode", text)
    return data


def test_ablation_sampling_mode(table, suite, benchmark):
    for name, (first, rand) in table.items():
        # Both exact (same component count).
        assert first.num_components == rand.num_components, name
        # The trackability advantage: first-k never reprocesses, so on
        # giant-component graphs it touches at most as many slots.
        assert first.edges_touched <= rand.edges_touched, name
        # Random sampling still benefits from skipping (coverage is
        # comparable), so it beats the no-sampling baseline.
        noskip = engine.run(
            "afforest", suite[name], neighbor_rounds=0, skip_largest=False
        )
        assert rand.edges_touched <= noskip.edges_touched * 1.05, name

    benchmark(lambda: engine.run("afforest", suite["web"], sampling="random"))
