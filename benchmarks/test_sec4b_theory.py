"""Sec. IV-B — the uniform-sampling phase transition and its degree bias.

Paper argument: on a d-regular graph, keeping each edge with probability
p = (1 + eps)/d samples (1 + eps)n/2 edges (Claim 1) and, by Frieze et
al., leaves a giant component when eps > 0 but only small ones when
eps < 0.  Uniform sampling at that O(|V|) budget still misses the only
edge of most degree-one vertices, an edge every spanning forest needs:
the paper's reason to sample neighbours instead.

The graphs are fixed (random 8-regular, n = 4000; a 1000-leaf star), so
the shapes do not depend on ``REPRO_BENCH_SIZE``.
"""

import pytest

from repro.analysis.theory import (
    degree_one_miss_rate,
    expected_sampled_edges,
    frieze_threshold,
    uniform_sampling_experiment,
)
from repro.bench.report import format_table
from repro.generators import random_regular_graph
from repro.graph import GraphBuilder

from conftest import register_report

N, DEGREE = 4000, 8
EPS = [-0.5, 0.0, 0.6]
SEEDS = range(3)
STAR_P = 0.2


@pytest.fixture(scope="module")
def regular():
    return random_regular_graph(N, DEGREE, seed=0)


@pytest.fixture(scope="module")
def theory(regular):
    rows, fractions, sampled = [], {}, {}
    for eps in EPS:
        p = frieze_threshold(DEGREE, eps)
        outcomes = [uniform_sampling_experiment(regular, p, seed=s) for s in SEEDS]
        fractions[eps] = [o.largest_component_fraction for o in outcomes]
        sampled[eps] = max(o.sampled_edges for o in outcomes)
        rows.append(
            [
                f"{1 + eps:g}/d",
                round(expected_sampled_edges(N, DEGREE, eps)),
                sampled[eps],
                round(min(fractions[eps]), 4),
                round(max(fractions[eps]), 4),
            ]
        )
    star = GraphBuilder(1001).add_star(0, list(range(1, 1001))).build()
    miss = degree_one_miss_rate(star, STAR_P, seed=0)
    text = format_table(
        f"Sec. IV-B — uniform sampling of a random {DEGREE}-regular graph, "
        f"n={N}, seeds {SEEDS.start}-{SEEDS.stop - 1}",
        ["p", "claim1_edges", "sampled_max", "largest_min", "largest_max"],
        rows,
    )
    text += (
        f"\n\nuniform p={STAR_P} on a 1000-leaf star misses {miss:.3f} of "
        "the degree-one vertices' only edges (neighbour sampling: 0)"
    )
    register_report("sec4b theory", text)
    return fractions, sampled, miss


def test_sec4b_phase_transition(theory, regular, benchmark):
    fractions, sampled, _ = theory
    assert min(fractions[0.6]) > 0.25  # a giant, Θ(n) component
    assert max(fractions[-0.5]) < 0.05  # shattered into o(n) components
    # Claim 1: the supercritical sample stays O(n) edges.
    assert sampled[0.6] < 1.2 * expected_sampled_edges(N, DEGREE, 0.6)

    p = frieze_threshold(DEGREE, 0.6)
    benchmark(lambda: uniform_sampling_experiment(regular, p))


def test_sec4b_degree_one_bias(theory):
    _, _, miss = theory
    assert 0.65 < miss < 0.95  # ~1 - p expected
