"""Afforest (paper Fig. 5): neighbour rounds, a π probe, one final link.

1. **Neighbour rounds** (phases ``L<r>`` / ``C<r>``, paper Sec. IV-C):
   round ``r`` links ``(v, N(v)[r])`` for every vertex of degree > ``r``
   and compresses — O(|V|) work per round, spreading the edge budget
   evenly over vertices and components.  ``sampling="first"`` consumes
   the first stored neighbour slots (trackable, so the final phase
   resumes after them); ``sampling="random"`` draws a random neighbour
   per vertex per round (untrackable — the final phase reprocesses every
   slot, the trade-off Sec. VI-A cites for choosing first-k).
2. **The π probe** (phase ``F``, Sec. IV-E): with skipping on, the
   giant intermediate component's label is identified by sampling π
   (:func:`repro.core.sampling.most_frequent_element` through
   ``backend.find_largest``).
3. **The final link** (phases ``H`` and ``C*``): one ``link_remaining``
   pass over every edge slot the rounds did not consume, skipping
   vertices in the giant component (safe by the paper's Theorem 3:
   undirected edges are stored in both directions, so the copies owned
   by non-skipped endpoints keep cross-component connectivity), then a
   final compress turning π into the component labeling.

Work that π already settles is skipped, exactly: a first-k round on an
all-zero π (one flat tree) gathers and links nothing inside the
backend, and a compress after a link that ran 0 rounds is not run.
Round 0 leaves one tree when every vertex but 0 has a lower-numbered
first neighbour: sorted neighbour lists of a connected graph numbered
in BFS, DFS or growth order.

Every step speaks the :class:`~repro.engine.backends.ExecutionBackend`
primitive vocabulary, so Afforest runs on all three substrates.
"""

from __future__ import annotations

import numpy as np

from repro.constants import (
    DEFAULT_NEIGHBOR_ROUNDS,
    DEFAULT_SKIP_SAMPLE_SIZE,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.result import CCResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.nputil import require_int
from repro.obs import phase_label

__all__ = ["afforest"]


def _random_round_edges(
    graph: CSRGraph, deg: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One *random* neighbour per vertex (with replacement across rounds)."""
    verts = np.nonzero(deg > 0)[0].astype(VERTEX_DTYPE)
    offsets = rng.integers(0, deg[verts])
    nbrs = graph.indices[graph.indptr[verts] + offsets]
    return verts, nbrs


def _compress(
    backend: ExecutionBackend,
    pi: np.ndarray,
    linked: int | None,
    result: CCResult,
    phase: str,
) -> None:
    """Compress π after a link that ran ``linked`` rounds and record the
    passes.

    A link that ran 0 rounds wrote nothing, so π is as flat as the last
    compress (or the identity) left it and ``compress`` would make one
    verifying sweep that returns 0.  The skip records 0 passes, keeps the
    phase's span (empty) and counts itself in ``rounds_skipped``.  A
    backend that reports no rounds (``None``) always compresses.
    """
    if linked == 0:
        with backend.tracer.span(phase):
            pass
        backend.tracer.metrics.counter("rounds_skipped").inc()
        result.compress_passes.append(0)
        return
    passes = backend.compress(pi, phase=phase)
    if passes is not None:
        result.compress_passes.append(passes)


def afforest(
    graph: CSRGraph,
    backend: ExecutionBackend,
    *,
    neighbor_rounds: int = DEFAULT_NEIGHBOR_ROUNDS,
    sampling: str = "first",
    skip_largest: bool = True,
    sample_size: int = DEFAULT_SKIP_SAMPLE_SIZE,
    seed: int = 0,
) -> CCResult:
    """Afforest's exact component labeling of ``graph`` on ``backend``.

    ``neighbor_rounds`` neighbour rounds (``sampling`` ``"first"`` or
    ``"random"``), then, when ``skip_largest``, a ``sample_size``-probe
    estimate of the giant component's label, then the final link phase
    avoiding that component's edges.  ``seed`` drives random sampling
    and the probes.
    """
    require_int("neighbor_rounds", neighbor_rounds, 0)
    if sampling not in ("first", "random"):
        raise ConfigurationError(
            f"sampling must be 'first' or 'random', got {sampling!r}"
        )
    require_int("sample_size", sample_size, 1)
    n = graph.num_vertices
    if n == 0:
        return CCResult(
            labels=np.arange(0, dtype=VERTEX_DTYPE),
            neighbor_rounds=neighbor_rounds,
            run_stats=backend.run_stats(),
        )

    rng = np.random.default_rng(seed)
    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi, neighbor_rounds=neighbor_rounds)
    deg = backend.degrees(graph)
    for r in range(neighbor_rounds):
        link_phase = phase_label("L", round=r)
        if sampling == "first":
            rounds = backend.link_neighbor_round(pi, graph, r, phase=link_phase)
            # Counted after the round: a backend that gathers the round
            # finds its degree <= r vertices inside the round's span.
            result.edges_sampled += n - backend.short_vertices(graph, r).shape[0]
        else:
            src, dst = _random_round_edges(graph, deg, rng)
            result.edges_sampled += int(src.shape[0])
            rounds = backend.link_edges(pi, src, dst, phase=link_phase)
        if rounds is not None:
            result.link_rounds.append(rounds)
        _compress(backend, pi, rounds, result, phase_label("C", round=r))
        backend.beat(link_phase)

    largest: int | None = None
    if skip_largest:
        largest = backend.find_largest(pi, sample_size, rng, phase="F")
        result.largest_label = largest

    # Random sampling cannot mark which slots were consumed, so the final
    # phase starts from slot 0 (reprocessing); first-k resumes after the
    # consumed prefix.
    final_start = neighbor_rounds if sampling == "first" else 0
    final, skipped, rounds = backend.link_remaining(
        pi, graph, final_start, largest, phase="H"
    )
    result.edges_final = final
    result.edges_skipped = skipped
    if rounds is not None:
        result.link_rounds.append(rounds)
    _compress(backend, pi, rounds, result, phase_label("C", final=True))
    backend.beat("H")
    result.run_stats = backend.run_stats()
    return result
