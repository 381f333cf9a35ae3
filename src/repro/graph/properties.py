"""Graph statistics: degrees, component census, diameter estimates.

These power the Table III reproduction (dataset statistics) and the sanity
layers of the benchmark harness.  Component counts here come from
``scipy.sparse.csgraph`` — an *independent* oracle from both the library's
own algorithms and the sequential union-find, so that cross-checks in the
test suite triangulate three implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.constants import NO_VERTEX, VERTEX_DTYPE
from repro.graph.csr import CSRGraph
from repro.nputil import segment_ranges, sorted_unique

__all__ = [
    "DegreeStatistics",
    "ComponentCensus",
    "GraphProperties",
    "degree_statistics",
    "component_census",
    "scipy_components",
    "bfs_levels",
    "pseudo_diameter",
    "exact_diameter",
    "summarize",
]


@dataclass(frozen=True)
class DegreeStatistics:
    """Summary of the (stored, directed) degree distribution."""

    min: int
    max: int
    mean: float
    median: float
    std: float
    num_isolated: int


@dataclass(frozen=True)
class ComponentCensus:
    """Connected-component structure of a graph."""

    num_components: int
    sizes: np.ndarray  # descending component sizes
    largest_fraction: float  # |c_max| / |V|

    @property
    def largest(self) -> int:
        return int(self.sizes[0]) if self.sizes.size else 0


@dataclass(frozen=True)
class GraphProperties:
    """The Table III row for one dataset."""

    name: str
    num_vertices: int
    num_edges: int
    degree: DegreeStatistics
    components: ComponentCensus
    pseudo_diameter: int


def degree_statistics(graph: CSRGraph) -> DegreeStatistics:
    """Degree distribution summary of ``graph``."""
    deg = np.asarray(graph.degree())
    if deg.size == 0:
        return DegreeStatistics(0, 0, 0.0, 0.0, 0.0, 0)
    return DegreeStatistics(
        min=int(deg.min()),
        max=int(deg.max()),
        mean=float(deg.mean()),
        median=float(np.median(deg)),
        std=float(deg.std()),
        num_isolated=int(np.count_nonzero(deg == 0)),
    )


def _to_scipy(graph: CSRGraph) -> sp.csr_matrix:
    data = np.ones(graph.num_directed_edges, dtype=np.int8)
    n = graph.num_vertices
    return sp.csr_matrix((data, graph.indices, graph.indptr), shape=(n, n))


def scipy_components(graph: CSRGraph) -> np.ndarray:
    """Component labels from scipy's csgraph (independent oracle)."""
    if graph.num_vertices == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    _, labels = csgraph.connected_components(
        _to_scipy(graph), directed=False
    )
    return labels.astype(VERTEX_DTYPE)


def component_census(graph: CSRGraph) -> ComponentCensus:
    """Number and sizes of connected components."""
    n = graph.num_vertices
    if n == 0:
        return ComponentCensus(0, np.empty(0, dtype=VERTEX_DTYPE), 0.0)
    labels = scipy_components(graph)
    sizes = np.bincount(labels)
    sizes = np.sort(sizes)[::-1].astype(VERTEX_DTYPE)
    return ComponentCensus(
        num_components=int(sizes.shape[0]),
        sizes=sizes,
        largest_fraction=float(sizes[0]) / float(n),
    )


def bfs_levels(graph: CSRGraph, source: int) -> np.ndarray:
    """BFS level of every vertex from ``source`` (−1 when unreachable).

    Vectorised frontier expansion: each step gathers the neighbour slices of
    the whole frontier with ``np.repeat`` arithmetic instead of per-vertex
    Python loops.
    """
    n = graph.num_vertices
    levels = np.full(n, int(NO_VERTEX), dtype=VERTEX_DTYPE)
    if n == 0:
        return levels
    levels[source] = 0
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    indptr, indices = graph.indptr, graph.indices
    level = 0
    while frontier.size:
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Flatten all frontier adjacency slices into one gather.
        offsets = np.repeat(starts, counts) + segment_ranges(counts)
        nbrs = indices[offsets]
        fresh = nbrs[levels[nbrs] == int(NO_VERTEX)]
        if fresh.size == 0:
            break
        fresh = sorted_unique(fresh)
        levels[fresh] = level
        frontier = fresh
    return levels


def pseudo_diameter(graph: CSRGraph, *, sweeps: int = 2, seed: int = 0) -> int:
    """Lower-bound diameter estimate via the double-sweep heuristic.

    Starts from the highest-degree vertex of the largest component, runs a
    BFS, restarts from the farthest vertex found, and repeats ``sweeps``
    times.  Exact on trees; a tight lower bound on most real graphs.
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    deg = np.asarray(graph.degree())
    source = int(np.argmax(deg))
    best = 0
    for _ in range(max(1, sweeps)):
        levels = bfs_levels(graph, source)
        reachable = levels >= 0
        ecc = int(levels[reachable].max()) if reachable.any() else 0
        if ecc <= best and ecc != 0:
            best = max(best, ecc)
            break
        best = max(best, ecc)
        far = np.nonzero(levels == ecc)[0]
        source = int(far[0])
    return best


def exact_diameter(graph: CSRGraph) -> int:
    """Exact diameter of the largest component via all-pairs BFS.

    Quadratic in ``n`` — intended for graphs of at most a few thousand
    vertices (tests and illustrations).
    """
    n = graph.num_vertices
    best = 0
    for v in range(n):
        levels = bfs_levels(graph, v)
        reachable = levels >= 0
        if reachable.any():
            best = max(best, int(levels[reachable].max()))
    return best


def summarize(graph: CSRGraph, name: str = "graph") -> GraphProperties:
    """Compute the full Table III row for ``graph``."""
    return GraphProperties(
        name=name,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        degree=degree_statistics(graph),
        components=component_census(graph),
        pseudo_diameter=pseudo_diameter(graph),
    )
