"""Cross-cutting label invariants of the tree-hooking family.

Because hooks always connect the higher-indexed root *under* the lower
one (Invariant 1), every correct tree-hooking execution converges to the
same concrete labeling: each vertex labelled with the **minimum vertex id
of its component**.  This pins down far more than partition equivalence —
SV, Afforest (all configurations), batch link, the simulated drivers and
the distributed reduction must agree bit-for-bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.constants import VERTEX_DTYPE
from repro.graph import from_edge_list
from repro.unionfind import SequentialUnionFind


@st.composite
def graphs(draw, max_n=25, max_edges=50):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, num_vertices=n)


def min_vertex_labels(g):
    """Reference: each vertex -> minimum id in its component."""
    uf = SequentialUnionFind(g.num_vertices)
    src, dst = g.undirected_edge_array()
    for u, v in zip(src.tolist(), dst.tolist()):
        uf.union(u, v)
    raw = uf.labels()
    out = np.empty_like(raw)
    for label in np.unique(raw):
        members = np.nonzero(raw == label)[0]
        out[members] = members.min()
    return out


TREE_HOOKING = ["afforest", "afforest-noskip", "sv"]


@given(graphs())
@settings(max_examples=50, deadline=None)
def test_tree_hooking_labels_are_component_minima(g):
    expected = min_vertex_labels(g)
    for algorithm in TREE_HOOKING:
        labels = repro.connected_components(g, algorithm)
        assert np.array_equal(labels, expected), algorithm
    labels = repro.connected_components(
        g, "sv", backend="distributed", ranks=4
    )
    assert np.array_equal(labels, expected), "sv [distributed]"


@given(graphs(), st.integers(0, 4), st.integers(0, 99))
@settings(max_examples=50, deadline=None)
def test_afforest_configurations_bit_identical(g, rounds, seed):
    expected = min_vertex_labels(g)
    r = repro.engine.run(
        "afforest", g, neighbor_rounds=rounds, seed=seed, sample_size=8
    )
    assert np.array_equal(r.labels, expected)


@given(graphs(max_n=18, max_edges=35), st.integers(1, 5), st.integers(0, 99))
@settings(max_examples=30, deadline=None)
def test_simulated_drivers_bit_identical(g, workers, seed):
    from repro import engine
    from repro.engine import SimulatedBackend
    from repro.parallel import SimulatedMachine

    expected = min_vertex_labels(g)
    m1 = SimulatedMachine(workers, schedule="cyclic", interleave="random", seed=seed)
    assert np.array_equal(
        engine.run(
            "afforest",
            g,
            backend=SimulatedBackend(m1),
            seed=seed,
            sample_size=8,
        ).labels,
        expected,
    )
    m2 = SimulatedMachine(workers, schedule="cyclic", interleave="random", seed=seed)
    assert np.array_equal(
        engine.run("sv", g, backend=SimulatedBackend(m2)).labels, expected
    )


def test_lp_also_converges_to_minima(mixed_graph):
    """Min-label propagation trivially shares the min-vertex labeling."""
    expected = min_vertex_labels(mixed_graph)
    assert np.array_equal(
        repro.connected_components(mixed_graph, "lp"), expected
    )
