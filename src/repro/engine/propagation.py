"""Label propagation (paper Sec. II-B).

Synchronous min-label propagation from singletons: the classical LP
baseline, whose round count tracks the graph's diameter.
"""

from __future__ import annotations

import numpy as np

from repro.constants import ITERATION_CAP_FACTOR, ITERATION_CAP_SLACK, VERTEX_DTYPE
from repro.engine.backends import ExecutionBackend
from repro.engine.result import CCResult
from repro.errors import ConvergenceError
from repro.graph.csr import CSRGraph
from repro.obs import phase_label

__all__ = ["lp"]


def lp(graph: CSRGraph, backend: ExecutionBackend) -> CCResult:
    """Synchronous min-label sweeps (phases ``P<i>``) to the fixpoint.

    Convergence when a sweep reports no change — sound on every substrate
    because a pass reporting zero changes performed no writes.  Work is
    ``O(D · |E|)``, the diameter dependence the paper contrasts against.
    """
    n = graph.num_vertices
    if n == 0:
        return CCResult(
            labels=np.arange(0, dtype=VERTEX_DTYPE), run_stats=backend.run_stats()
        )
    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi)
    m = graph.num_directed_edges
    if m:
        cap = ITERATION_CAP_FACTOR * n + ITERATION_CAP_SLACK
        iterations = 0
        while True:
            iterations += 1
            if iterations > cap:
                raise ConvergenceError(
                    f"label propagation exceeded {cap} iterations"
                )
            phase = phase_label("P", round=iterations)
            changed = backend.propagate_pass(pi, graph, phase=phase)
            result.edges_processed += m
            backend.beat(phase, changed=int(changed))
            if not changed:
                break
        result.iterations = iterations
    result.run_stats = backend.run_stats()
    return result
