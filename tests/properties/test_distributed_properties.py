"""Property-based tests of the distributed backend."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import DistributedBackend
from repro.graph import from_edge_list
from repro.unionfind import sequential_components


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


@given(graphs(), st.integers(1, 9), st.booleans())
@settings(max_examples=60, deadline=None)
def test_any_world_size_and_partitioner_exact(g, ranks, use_hash):
    backend = DistributedBackend(
        ranks=ranks, partition="hash" if use_hash else "block"
    )
    result = engine.run(g, plan="none+fastsv", backend=backend)
    assert equivalent_labelings(result.labels, sequential_components(g))
