"""Shiloach–Vishkin connected components (paper Fig. 1, GAP formulation).

Each outer iteration performs a *hook* pass over every edge — ``(u, v)``
hooks ``π(v)`` under ``π(u)`` when ``π(u) < π(v)`` and ``π(v)`` is a root —
followed by a *shortcut* pass compressing every vertex's path.  The
algorithm converges when a full iteration changes nothing; unlike Afforest,
every edge is reprocessed in every iteration, which is exactly the
work-inefficiency the paper targets.

The hook/shortcut pipeline is implemented exactly once, in
:func:`repro.engine.finish.sv_pipeline_edges`, against the
:class:`~repro.engine.backends.ExecutionBackend` primitives.  The entry
points here select input layout and substrate:

- :func:`shiloach_vishkin` — vectorized, CSR input (the GAP CPU baseline);
- :func:`shiloach_vishkin_edgelist` — vectorized, flat COO input (the
  Soman et al. GPU layout).

For other substrates call the engine directly, e.g.
``engine.run("sv", graph, backend=SimulatedBackend(machine))``.
"""

from __future__ import annotations

import numpy as np

from repro.engine import run as _engine_run
from repro.engine.backends import VectorizedBackend
from repro.engine.finish import sv_pipeline_edges
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

#: Back-compat alias — SV runs return the unified engine record.
SVResult = CCResult


def shiloach_vishkin(
    graph: CSRGraph, *, track_depth: bool = False, shortcut: str = "full"
) -> CCResult:
    """SV over a CSR graph (vectorized).

    ``track_depth`` records the maximum tree depth before each shortcut —
    the Table II statistic — at the cost of an O(n) scan per iteration.
    ``shortcut`` selects full compression per iteration (GAP's
    formulation, the default) or the original algorithm's single
    ``pi <- pi[pi]`` step.
    """
    return _engine_run(
        "sv", graph, track_depth=track_depth, shortcut=shortcut
    )


def shiloach_vishkin_edgelist(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    *,
    track_depth: bool = False,
) -> CCResult:
    """SV over a flat directed edge list (the GPU data layout).

    Semantically identical to :func:`shiloach_vishkin`; exists so the
    layout ablation can charge CSR-expansion cost to the CSR variant and
    none to this one, mirroring the CSR-vs-edge-list GPU comparison.
    """
    result = sv_pipeline_edges(
        VectorizedBackend(), num_vertices, src, dst, track_depth=track_depth
    )
    result.algorithm = "sv"
    result.backend = "vectorized"
    return result
