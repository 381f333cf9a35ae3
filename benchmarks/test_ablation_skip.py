"""Ablation A2 — large-component skipping and the probe budget.

Quantifies Theorem 3's payoff (edge slots never touched) per dataset and
sweeps ``sample_size`` of the probabilistic component search, checking the
probe's reliability claim: a constant number of probes suffices to find
the giant component, and a wrong guess costs only work, never correctness.
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis.verify import is_valid_labeling
from repro.bench.report import format_table
from repro.core.sampling import exact_largest_label
from repro.core.compress import compress_all
from repro.core.link import link_batch
from repro.constants import VERTEX_DTYPE

from conftest import register_report

SAMPLE_SIZES = [4, 16, 64, 256, 1024]


@pytest.fixture(scope="module")
def table(suite):
    rows = []
    data = {}
    for name, g in suite.items():
        res = engine.run("afforest", g, skip_largest=True)
        noskip = engine.run("afforest", g, skip_largest=False)
        frac = res.edges_skipped / max(g.num_directed_edges, 1)
        data[name] = (res, noskip, frac)
        rows.append(
            [
                name,
                res.edges_skipped,
                round(frac, 3),
                res.edges_final,
                noskip.edges_final,
            ]
        )
    text = format_table(
        "Ablation A2 — edge slots skipped by Theorem 3",
        ["dataset", "skipped", "skip_frac_of_|E2|", "final_with_skip", "final_no_skip"],
        rows,
    )
    register_report("ablation a2 skip", text)
    return data


def _pi_after_rounds(g, rounds=2):
    pi = np.arange(g.num_vertices, dtype=VERTEX_DTYPE)
    deg = np.asarray(g.degree())
    indptr, indices = g.indptr, g.indices
    for r in range(rounds):
        verts = np.nonzero(deg > r)[0].astype(VERTEX_DTYPE)
        link_batch(pi, verts, indices[indptr[verts] + r])
        compress_all(pi)
    return pi


def test_ablation_skip_payoff(table, suite, benchmark):
    # Giant-component datasets skip the bulk of their final phase.
    for name in ("urand", "twitter", "web"):
        _, _, frac = table[name]
        assert frac > 0.5, (name, frac)

    # Correctness is independent of the skip decision everywhere.
    for name, g in suite.items():
        res, _, _ = table[name]
        assert is_valid_labeling(g, res.labels), name

    benchmark(lambda: engine.run("afforest", suite["urand"], skip_largest=True))


def test_ablation_probe_budget(suite, benchmark):
    """Probe reliability: across seeds and sample sizes, the sampled mode
    matches the exact giant label on giant-component graphs once the
    budget reaches a few dozen probes."""
    from repro.core.sampling import most_frequent_element

    g = suite["urand"]
    pi = _pi_after_rounds(g)
    exact = exact_largest_label(pi)
    rows = []
    for k in SAMPLE_SIZES:
        hits = sum(
            most_frequent_element(pi, k, rng=np.random.default_rng(seed)) == exact
            for seed in range(20)
        )
        rows.append([k, f"{hits}/20"])
    text = format_table(
        "Ablation A2b — probe budget vs giant-label hit rate (urand)",
        ["sample_size", "hits"],
        rows,
    )
    register_report("ablation a2b probe budget", text)

    # 64+ probes: essentially always right on a >90% giant component.
    assert all(
        most_frequent_element(pi, 64, rng=np.random.default_rng(s)) == exact
        for s in range(20)
    )

    # Tiny budgets may misidentify, but results stay exact.
    for seed in range(5):
        res = engine.run("afforest", g, sample_size=1, seed=seed)
        assert is_valid_labeling(g, res.labels)

    benchmark(lambda: most_frequent_element(pi, 1024))
