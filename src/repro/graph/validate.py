"""Structural validation of CSR graphs beyond the cheap constructor checks.

The constructor of :class:`~repro.graph.csr.CSRGraph` validates the index
arithmetic; the functions here perform the more expensive semantic checks
(symmetry, duplicate-freedom, sortedness) that untrusted inputs need.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.nputil import sorted_unique

__all__ = [
    "check_symmetric",
    "check_no_duplicates",
    "check_no_self_loops",
    "check_sorted_neighbors",
    "validate_graph",
]


def _edge_keys(graph: CSRGraph) -> np.ndarray:
    """Directed edges encoded as single int64 keys ``src * n + dst``."""
    n = max(graph.num_vertices, 1)
    src, dst = graph.sources(), graph.indices
    return src * np.int64(n) + dst


def check_symmetric(graph: CSRGraph) -> None:
    """Raise unless every edge ``(u, v)`` has a mirror ``(v, u)``.

    Self loops are their own mirror.  Parallel edges must be mirrored with
    matching multiplicity.
    """
    n = max(graph.num_vertices, 1)
    src, dst = graph.sources(), graph.indices
    fwd = np.sort(src * np.int64(n) + dst)
    rev = np.sort(dst * np.int64(n) + src)
    if not np.array_equal(fwd, rev):
        # Locate one offending edge for the message.
        diff = np.setdiff1d(fwd, rev, assume_unique=False)
        if diff.size:
            key = int(diff[0])
            raise GraphFormatError(
                f"graph is not symmetric: edge ({key // n}, {key % n}) has no mirror"
            )
        raise GraphFormatError(
            "graph is not symmetric: mirrored edge multiplicities differ"
        )


def check_no_duplicates(graph: CSRGraph) -> None:
    """Raise if any neighbour list contains a repeated vertex."""
    keys = _edge_keys(graph)
    uniq = sorted_unique(keys)
    if uniq.shape[0] != keys.shape[0]:
        raise GraphFormatError(
            f"graph contains {keys.shape[0] - uniq.shape[0]} duplicate edge entries"
        )


def check_no_self_loops(graph: CSRGraph) -> None:
    """Raise if the graph stores any ``(v, v)`` edge."""
    loops = graph.num_self_loops
    if loops:
        raise GraphFormatError(f"graph contains {loops} self loops")


def check_sorted_neighbors(graph: CSRGraph) -> None:
    """Raise unless every neighbour list is sorted ascending."""
    indptr, indices = graph.indptr, graph.indices
    if indices.shape[0] < 2:
        return
    # Adjacent-pair comparison, masking out pairs that straddle rows.
    ascending = indices[:-1] <= indices[1:]
    row_ends = indptr[1:-1] - 1  # last slot of each row except the final row
    row_ends = row_ends[(row_ends >= 0) & (row_ends < indices.shape[0] - 1)]
    ascending[row_ends] = True
    if not np.all(ascending):
        v = int(np.searchsorted(indptr, np.nonzero(~ascending)[0][0], side="right")) - 1
        raise GraphFormatError(f"neighbour list of vertex {v} is not sorted")


def validate_graph(
    graph: CSRGraph,
    *,
    require_sorted: bool = False,
    allow_self_loops: bool = False,
    allow_duplicates: bool = False,
) -> None:
    """Run the full semantic validation suite on ``graph``."""
    check_symmetric(graph)
    if not allow_duplicates:
        check_no_duplicates(graph)
    if not allow_self_loops:
        check_no_self_loops(graph)
    if require_sorted:
        check_sorted_neighbors(graph)
