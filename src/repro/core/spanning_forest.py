"""Spanning forests (paper Sec. IV-A).

A spanning forest (SF) preserves connectivity with only ``|V| - C`` edges,
which is why processing an SF first is the *optimal* subgraph strategy the
paper benchmarks neighbour sampling against (Fig. 6's "optimal" series).

Extraction exploits the duality the paper notes: running a tree-hooking CC
algorithm and keeping exactly the edges that caused a merge yields an SF.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph
from repro.unionfind.sequential import SequentialUnionFind


def spanning_forest(graph: CSRGraph) -> EdgeList:
    """Edges of a spanning forest of ``graph`` (each undirected edge once).

    The result has exactly ``|V| - C`` edges (Sec. IV-A).  Which spanning
    forest is returned depends on edge iteration order; any SF is equally
    "optimal" for the convergence experiments.
    """
    uf = SequentialUnionFind(graph.num_vertices)
    src, dst = graph.undirected_edge_array()
    keep_src: list[int] = []
    keep_dst: list[int] = []
    for u, v in zip(src.tolist(), dst.tolist()):
        if u != v and uf.union(u, v):
            keep_src.append(u)
            keep_dst.append(v)
    return EdgeList(
        graph.num_vertices,
        np.asarray(keep_src, dtype=VERTEX_DTYPE),
        np.asarray(keep_dst, dtype=VERTEX_DTYPE),
    )


def spanning_forest_size(graph: CSRGraph) -> int:
    """``|V| - C`` without materialising the forest."""
    uf = SequentialUnionFind(graph.num_vertices)
    src, dst = graph.undirected_edge_array()
    for u, v in zip(src.tolist(), dst.tolist()):
        uf.union(u, v)
    return graph.num_vertices - uf.num_sets
