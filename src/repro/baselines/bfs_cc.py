"""BFS-based connected components (paper Sec. II-B) — deprecated shim.

Components are identified one at a time: pick an unvisited seed, run a
parallel (frontier-expanded) BFS labelling everything reached, repeat.
Each edge is touched once — linear work — but components are processed
*serially*, which is the weakness Fig. 8c exposes: runtime grows with the
number of components.

The algorithm is implemented exactly once, as a backend-agnostic pipeline
(:func:`repro.engine.finish.bfs_pipeline`); the entry point here is a
thin deprecated shim over :func:`repro.engine.run` kept for backward
compatibility — prefer ``engine.run("bfs", graph)`` in new code.
"""

from __future__ import annotations

from repro.engine import run as _engine_run
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

#: Back-compat alias — BFS-CC runs return the unified engine record.
BFSCCResult = CCResult


def bfs_cc(graph: CSRGraph) -> CCResult:
    """Connected components via repeated parallel BFS (vectorized).

    .. deprecated:: 1.2
        Equivalent to ``engine.run("bfs", graph)``; prefer the engine
        call in new code — it exposes backend selection and telemetry.
    """
    return _engine_run("bfs", graph)
