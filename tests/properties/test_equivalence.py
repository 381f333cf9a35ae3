"""Property-based equivalence of every algorithm against the oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import equivalent_labelings
from repro.graph import from_edge_list
from repro.graph.properties import scipy_components

ALGORITHMS = [
    "afforest",
    "afforest-noskip",
    "sv",
    "lp",
    "bfs",
    "dobfs",
]


@st.composite
def graphs(draw, max_n=30, max_edges=70):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return from_edge_list([], num_vertices=0)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, num_vertices=n)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_all_algorithms_agree(g):
    ref = repro.sequential_components(g)
    assert equivalent_labelings(ref, scipy_components(g))
    for algorithm in ALGORITHMS:
        labels = repro.connected_components(g, algorithm)
        assert equivalent_labelings(labels, ref), algorithm


@given(graphs(), st.integers(0, 6), st.booleans(), st.integers(0, 999))
@settings(max_examples=60, deadline=None)
def test_afforest_parameter_space(g, rounds, skip, seed):
    """Every (neighbor_rounds, skip, seed) configuration is exact."""
    if g.num_vertices == 0:
        return
    ref = repro.sequential_components(g)
    r = repro.engine.run(
        "afforest",
        g,
        neighbor_rounds=rounds,
        skip_largest=skip,
        seed=seed,
        sample_size=16,
    )
    assert equivalent_labelings(r.labels, ref)


@given(graphs(max_n=20, max_edges=40), st.integers(1, 5), st.integers(0, 999))
@settings(max_examples=30, deadline=None)
def test_simulated_afforest_matches(g, workers, seed):
    if g.num_vertices == 0:
        return
    from repro import engine
    from repro.engine import SimulatedBackend
    from repro.parallel import SimulatedMachine

    ref = repro.sequential_components(g)
    m = SimulatedMachine(
        workers, schedule="cyclic", interleave="random", seed=seed
    )
    r = engine.run(
        "afforest",
        g,
        backend=SimulatedBackend(m),
        seed=seed,
        sample_size=16,
    )
    assert equivalent_labelings(r.labels, ref)
