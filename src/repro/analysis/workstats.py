"""Table II work statistics: per-edge local iterations and tree depths.

The paper's Table II contrasts, per dataset:

- **SV**: number of outer iterations, and the maximal tree depth arising
  during execution;
- **Afforest** (without component skipping): the *average* number of local
  iterations the ``link`` loop runs per edge (close to 1 in practice — most
  edges find their endpoints already linked), and the maximal tree depth
  encountered.

:func:`afforest_workstats` replays Afforest's exact processing schedule
(neighbour rounds, interleaved compress, full remainder) through the scalar
instrumented ``link``; :func:`sv_workstats` wraps the vectorized SV with
depth tracking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import engine
from repro.constants import DEFAULT_NEIGHBOR_ROUNDS, VERTEX_DTYPE
from repro.core.compress import compress_all
from repro.core.link import LinkCounters, link
from repro.graph.csr import CSRGraph
from repro.unionfind.parent import ParentArray


@dataclass(frozen=True)
class WorkStats:
    """One Table II row-half (either SV or Afforest)."""

    algorithm: str
    iterations: float  # SV: outer iterations; Afforest: mean local iterations
    max_iterations: int
    max_tree_depth: int
    edges_processed: int


def sv_workstats(graph: CSRGraph) -> WorkStats:
    """SV's Table II numbers: outer iterations and max tree depth."""
    result = engine.run("sv", graph, track_depth=True)
    return WorkStats(
        algorithm="sv",
        iterations=float(result.iterations),
        max_iterations=result.iterations,
        max_tree_depth=result.max_tree_depth,
        edges_processed=result.edges_processed,
    )


def afforest_workstats(
    graph: CSRGraph,
    *,
    neighbor_rounds: int = DEFAULT_NEIGHBOR_ROUNDS,
    depth_checkpoints: int = 16,
) -> WorkStats:
    """Afforest's Table II numbers via the instrumented scalar ``link``.

    Replays the Fig. 5 schedule without component skipping (as Table II
    specifies).  Tree depth is sampled every ``edges / depth_checkpoints``
    scalar links (a full depth scan per edge would be quadratic); the
    maximum over checkpoints matches the paper's "maximal tree depth".
    """
    n = graph.num_vertices
    pi = np.arange(n, dtype=VERTEX_DTYPE)
    counters = LinkCounters()
    indptr, indices = graph.indptr, graph.indices
    deg = np.asarray(graph.degree())
    max_depth = 0

    def scan_depth() -> None:
        nonlocal max_depth
        d = ParentArray(pi).max_depth()
        if d > max_depth:
            max_depth = d

    total_edges = graph.num_directed_edges
    stride = max(total_edges // max(depth_checkpoints, 1), 1)
    since_scan = 0

    def do_link(u: int, w: int) -> None:
        nonlocal since_scan
        link(pi, u, w, counters)
        since_scan += 1
        if since_scan >= stride:
            scan_depth()
            since_scan = 0

    for r in range(neighbor_rounds):
        for v in np.nonzero(deg > r)[0].tolist():
            do_link(v, int(indices[indptr[v] + r]))
        scan_depth()
        compress_all(pi)
    for v in range(n):
        for e in range(int(indptr[v]) + neighbor_rounds, int(indptr[v + 1])):
            do_link(v, int(indices[e]))
    scan_depth()
    compress_all(pi)

    return WorkStats(
        algorithm="afforest",
        iterations=counters.mean_iterations,
        max_iterations=counters.max_iterations,
        max_tree_depth=max_depth,
        edges_processed=counters.edges_processed,
    )
