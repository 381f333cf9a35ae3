"""Label-propagation finish phases (paper Sec. II-B).

Synchronous (``lp``) and data-driven/frontier (``lp-datadriven``)
min-label propagation, started from whatever labels the sampling phase
left in π.  With no sampling these are exactly the classical monoliths;
after a sampling phase they only have to spread the already-merged
labels, so the number of rounds drops with the sampled coverage.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.engine.phase import FinishSpec, PlanContext
from repro.errors import ConvergenceError
from repro.obs import phase_label

__all__ = ["LP", "LP_DATADRIVEN", "lp_finish", "lp_datadriven_finish"]


def lp_finish(ctx: PlanContext) -> None:
    """Synchronous min-label sweeps (phases ``P<i>``) to the fixpoint.

    Convergence when a sweep reports no change — sound on every substrate
    because a pass reporting zero changes performed no writes.  Work is
    ``O(D · |E|)``, the diameter dependence the paper contrasts against.
    """
    backend, pi, graph, result = ctx.backend, ctx.pi, ctx.graph, ctx.result
    m = graph.num_directed_edges
    if m == 0:
        return
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
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
        backend.instr.beat(phase, changed=int(changed))
        if not changed:
            break
    result.iterations = iterations


def lp_datadriven_finish(ctx: PlanContext) -> None:
    """Data-driven (frontier) min-label propagation (phases ``P<i>``).

    Each round pushes labels from the frontier of vertices whose label
    changed last round, so total work shrinks from ``O(D·|E|)`` toward
    the sum of active-edge counts.  Every substrate applies a round's
    min-writes without losing one, so a drained frontier is the fixpoint.
    """
    backend, pi, graph, result = ctx.backend, ctx.pi, ctx.graph, ctx.result
    n = graph.num_vertices
    if graph.num_directed_edges == 0:
        return
    indptr = graph.indptr
    frontier = np.arange(n, dtype=VERTEX_DTYPE)
    cap = ITERATION_CAP_FACTOR * n + ITERATION_CAP_SLACK
    iterations = 0
    while frontier.size:
        iterations += 1
        if iterations > cap:
            raise ConvergenceError(
                f"data-driven label propagation exceeded {cap} iterations"
            )
        total = int((indptr[frontier + 1] - indptr[frontier]).sum())
        if total == 0:
            break
        phase = phase_label(
            "P", round=iterations, frontier=int(frontier.shape[0])
        )
        backend.record_frontier(int(frontier.shape[0]), phase=phase)
        result.edges_processed += total
        frontier = backend.frontier_expand(pi, graph, frontier, phase=phase)
        backend.instr.beat(phase, frontier=int(frontier.shape[0]))
    result.iterations = iterations


LP = FinishSpec(
    name="lp",
    fn=lp_finish,
    description="synchronous min-label propagation (O(D*|E|) work)",
)

LP_DATADRIVEN = FinishSpec(
    name="lp-datadriven",
    fn=lp_datadriven_finish,
    description="data-driven (frontier) min-label propagation",
)
