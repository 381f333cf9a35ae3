"""Property-based round-trips for every graph file format."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import from_edge_list
from repro.graph.io import (
    load_npz,
    read_edge_list,
    read_metis,
    save_npz,
    write_edge_list,
    write_metis,
)


@st.composite
def graphs(draw, max_n=20, max_edges=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, num_vertices=n)


@st.composite
def tail_anchored_graphs(draw, max_n=20, max_edges=40):
    """Graphs whose highest vertex id carries an edge (what .el can express)."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    edges.append((0, n - 1))
    return from_edge_list(edges, num_vertices=n)


_settings = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(tail_anchored_graphs(max_n=10**5))
@_settings
def test_edge_list_roundtrip(tmp_path, g):
    """The file holds exactly the f-string lines of the edges, through a
    path and through a text handle, and reads back as the same graph."""
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    src, dst = g.undirected_edge_array()
    want = "".join(f"{u} {v}\n" for u, v in zip(src, dst))
    assert path.read_bytes() == want.encode()
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert buf.getvalue() == want
    assert read_edge_list(path) == g


@given(graphs())
@_settings
def test_metis_roundtrip(tmp_path, g):
    path = tmp_path / "g.graph"
    write_metis(g, path)
    assert read_metis(path) == g


@given(graphs())
@_settings
def test_npz_roundtrip(tmp_path, g):
    path = tmp_path / "g.npz"
    save_npz(g, path)
    assert load_npz(path) == g


@given(graphs())
@_settings
def test_metis_then_npz_chain(tmp_path, g):
    """Conversions compose: metis -> graph -> npz preserves identity."""
    m = tmp_path / "c.graph"
    z = tmp_path / "c.npz"
    write_metis(g, m)
    mid = read_metis(m)
    save_npz(mid, z)
    assert load_npz(z) == g
