"""Direction-optimizing BFS connected components (Beamer et al. [1, 7]) —
deprecated shim.

Like :mod:`~repro.baselines.bfs_cc` but each BFS step chooses between

- **top-down**: expand the frontier's neighbour lists (work proportional to
  frontier out-degree), and
- **bottom-up**: every unvisited vertex scans its own neighbours and stops
  at the *first* one found in the frontier (work often far below the full
  edge count on low-diameter graphs — the "sub-linear in |E|" behaviour the
  paper credits DOBFS with).

The switch follows GAP's heuristic: go bottom-up when the frontier's
out-degree exceeds ``remaining_edges / alpha``; return to top-down when the
frontier shrinks below ``n / beta`` (defaults alpha=15, beta=18).

The algorithm is implemented exactly once, as a backend-agnostic pipeline
(:func:`repro.engine.finish.dobfs_pipeline`); the entry point here is a
thin deprecated shim over :func:`repro.engine.run` kept for backward
compatibility — prefer ``engine.run("dobfs", graph)`` in new code.
"""

from __future__ import annotations

from repro.engine import run as _engine_run
from repro.engine.finish import DEFAULT_ALPHA, DEFAULT_BETA
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

__all__ = ["DEFAULT_ALPHA", "DEFAULT_BETA", "DOBFSResult", "dobfs_cc"]

#: Back-compat alias — DOBFS-CC runs return the unified engine record.
DOBFSResult = CCResult


def dobfs_cc(
    graph: CSRGraph,
    *,
    alpha: float = DEFAULT_ALPHA,
    beta: float = DEFAULT_BETA,
) -> CCResult:
    """Connected components via direction-optimizing BFS (vectorized).

    .. deprecated:: 1.2
        Equivalent to ``engine.run("dobfs", graph, alpha=..., beta=...)``;
        prefer the engine call in new code — it exposes backend selection
        and telemetry.
    """
    return _engine_run("dobfs", graph, alpha=alpha, beta=beta)
