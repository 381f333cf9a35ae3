"""Tree-hooking finish: Shiloach–Vishkin.

Each iteration hooks parent pointers edge-by-edge (GAP's formulation,
Fig. 1), then shortcuts, until a full hook pass changes nothing.  The
loop is shared by the ``sv`` plan and the flat edge-list entry point
:func:`sv_pipeline_edges`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.phase import FinishSpec, PlanContext
from repro.engine.result import CCResult
from repro.errors import ConvergenceError
from repro.obs import phase_label
from repro.unionfind.parent import ParentArray

__all__ = ["SV", "sv_finish", "sv_pipeline_edges"]


def _hook_loop(
    backend: ExecutionBackend,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    result: CCResult,
    *,
    track_depth: bool,
) -> None:
    """The SV iteration shared by the finish phase and the edge-list API."""
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    iterations = 0
    while True:
        iterations += 1
        if iterations > cap:
            raise ConvergenceError(f"SV exceeded {cap} iterations")
        changed = backend.hook_pass(
            pi, src, dst, phase=phase_label("H", round=iterations)
        )
        result.edges_processed += int(src.shape[0])
        if track_depth:
            d = ParentArray(pi).max_depth()
            result.depth_per_iteration.append(d)
            result.max_tree_depth = max(result.max_tree_depth, d)
        if changed or iterations == 1:
            backend.compress(pi, phase=phase_label("S", round=iterations))
        else:
            # A hook pass reporting no change performed no writes on any
            # substrate, and the previous iteration ended with a full
            # compress — π is still flat, so the trailing compress would
            # be the identity.  (The first iteration still compresses:
            # the loop does not assume the π it is handed is flat.)
            backend.tracer.metrics.counter("rounds_skipped").inc()
        backend.beat(phase_label("H", round=iterations), changed=int(changed))
        if not changed:
            break
    result.iterations = iterations


def sv_finish(ctx: PlanContext, *, track_depth: bool = False) -> None:
    """Shiloach–Vishkin hook/shortcut loop over the full edge array."""
    src, dst = ctx.graph.edge_array()
    _hook_loop(ctx.backend, ctx.pi, src, dst, ctx.result, track_depth=track_depth)


def sv_pipeline_edges(
    backend: ExecutionBackend,
    num_vertices: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    track_depth: bool = False,
) -> CCResult:
    """Shiloach–Vishkin over a flat directed edge list, any backend.

    The standalone edge-list entry point (the layout ablation's flat-COO
    variant, the GPU data layout); graph-based runs go through the ``sv``
    plan.  ``track_depth`` records the maximum tree depth before each
    shortcut — the Table II statistic — at the cost of an O(n) scan per
    iteration.
    """
    n = num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        result.run_stats = backend.run_stats()
        return result
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)

    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi)
    _hook_loop(backend, pi, src, dst, result, track_depth=track_depth)
    if result.labels.dtype != VERTEX_DTYPE:
        # Narrowed working labels never escape the engine layer.
        result.labels = result.labels.astype(VERTEX_DTYPE)
    result.run_stats = backend.run_stats()
    return result


SV = FinishSpec(name="sv", fn=sv_finish, params=("track_depth",))
