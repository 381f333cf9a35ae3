"""Label-propagation finish (paper Sec. II-B).

Synchronous min-label propagation from singletons: the classical LP
baseline, whose round count tracks the graph's diameter.
"""

from __future__ import annotations

from repro.constants import ITERATION_CAP_FACTOR, ITERATION_CAP_SLACK
from repro.engine.phase import FinishSpec, PlanContext
from repro.errors import ConvergenceError
from repro.obs import phase_label

__all__ = ["LP", "lp_finish"]


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
        backend.beat(phase, changed=int(changed))
        if not changed:
            break
    result.iterations = iterations


LP = FinishSpec(name="lp", fn=lp_finish)
