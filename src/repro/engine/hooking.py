"""Tree hooking: Shiloach–Vishkin.

Each iteration hooks parent pointers edge-by-edge (GAP's formulation,
Fig. 1), then shortcuts, until a full hook pass changes nothing.  The
loop is shared by :func:`sv`, over a graph's edge array, and the flat
edge-list entry point :func:`sv_pipeline_edges`.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.result import CCResult
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.nputil import require_int, require_integer_ids
from repro.obs import phase_label
from repro.unionfind.parent import ParentArray

__all__ = ["sv", "sv_pipeline_edges"]


def _sv(
    backend: ExecutionBackend,
    n: int,
    src: np.ndarray,
    dst: np.ndarray,
    *,
    track_depth: bool,
) -> CCResult:
    """The SV iteration over a flat edge list, shared by :func:`sv` and
    :func:`sv_pipeline_edges`."""
    if n == 0:
        return CCResult(
            labels=np.arange(0, dtype=VERTEX_DTYPE), run_stats=backend.run_stats()
        )
    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi)
    cap = ITERATION_CAP_FACTOR * n + ITERATION_CAP_SLACK
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
    result.run_stats = backend.run_stats()
    return result


def sv(
    graph: CSRGraph, backend: ExecutionBackend, *, track_depth: bool = False
) -> CCResult:
    """Shiloach–Vishkin hook/shortcut loop over ``graph``'s edge array.

    ``track_depth`` records the maximum tree depth before each shortcut
    — the Table II statistic — at the cost of an O(n) scan per iteration.
    """
    src, dst = graph.edge_array()
    return _sv(backend, graph.num_vertices, src, dst, track_depth=track_depth)


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
    variant, the GPU data layout); graph-based runs go through
    :func:`sv`.  ``src`` and ``dst`` must be equal-length 1-D integer
    arrays of ids in ``[0, num_vertices)``; anything else raises
    :class:`~repro.errors.ConfigurationError` before any work.
    """
    require_int("num_vertices", num_vertices, 0)
    src, dst = np.asarray(src), np.asarray(dst)
    if src.ndim != 1 or dst.shape != src.shape:
        raise ConfigurationError(
            "src and dst must be 1-D arrays of equal length, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    for ids in (src, dst):
        require_integer_ids(ids)
        if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= num_vertices):
            raise ConfigurationError(
                f"vertex ids must lie in [0, {num_vertices}), got "
                f"[{int(ids.min())}, {int(ids.max())}]"
            )
    result = _sv(
        backend,
        num_vertices,
        np.ascontiguousarray(src, dtype=VERTEX_DTYPE),
        np.ascontiguousarray(dst, dtype=VERTEX_DTYPE),
        track_depth=track_depth,
    )
    # Narrowed working labels never escape the engine layer.
    result.labels = result.labels.astype(VERTEX_DTYPE, copy=False)
    return result
