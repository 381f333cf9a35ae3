"""k-out neighbour-round sampling (Afforest, paper Sec. IV-C).

Each round links ``(v, N(v)[r])`` for every vertex of degree > ``r`` and
compresses — O(|V|) work per round, spreading the edge budget evenly over
vertices and components.  ``sampling="first"`` consumes the first stored
neighbour slots (trackable, so the settle finish resumes after them);
``sampling="random"`` draws a random neighbour per vertex per round
(untrackable — the finish reprocesses every slot, the trade-off Sec. VI-A
cites for choosing first-k).
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_NEIGHBOR_ROUNDS, VERTEX_DTYPE
from repro.engine.phase import PlanContext, SamplingSpec
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.nputil import require_int
from repro.obs import phase_label

__all__ = ["KOUT", "kout_sampling"]


def _validate(
    *,
    neighbor_rounds: int = DEFAULT_NEIGHBOR_ROUNDS,
    sampling: str = "first",
) -> None:
    require_int("neighbor_rounds", neighbor_rounds, 0)
    if sampling not in ("first", "random"):
        raise ConfigurationError(
            f"sampling must be 'first' or 'random', got {sampling!r}"
        )


def _random_round_edges(
    graph: CSRGraph, deg: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One *random* neighbour per vertex (with replacement across rounds)."""
    verts = np.nonzero(deg > 0)[0].astype(VERTEX_DTYPE)
    offsets = rng.integers(0, deg[verts])
    nbrs = graph.indices[graph.indptr[verts] + offsets]
    return verts, nbrs


def kout_sampling(
    ctx: PlanContext,
    *,
    neighbor_rounds: int = DEFAULT_NEIGHBOR_ROUNDS,
    sampling: str = "first",
) -> None:
    """``neighbor_rounds`` rounds of neighbour linking, each compressed.

    Phase labels are the Afforest legend's ``L<r>`` / ``C<r>``, each
    carrying its round as the structured ``round`` attribute.
    """
    _validate(neighbor_rounds=neighbor_rounds, sampling=sampling)
    backend, pi, result = ctx.backend, ctx.pi, ctx.result
    deg = backend.degrees(ctx.graph)
    for r in range(neighbor_rounds):
        link_phase = phase_label("L", round=r)
        if sampling == "first":
            result.edges_sampled += int(np.count_nonzero(deg > r))
            rounds = backend.link_neighbor_round(
                pi, ctx.graph, r, phase=link_phase
            )
        else:
            src, dst = _random_round_edges(ctx.graph, deg, ctx.rng)
            result.edges_sampled += int(src.shape[0])
            rounds = backend.link_edges(pi, src, dst, phase=link_phase)
        if rounds is not None:
            result.link_rounds.append(rounds)
        passes = backend.compress(pi, phase=phase_label("C", round=r))
        if passes is not None:
            result.compress_passes.append(passes)
        backend.beat(link_phase)
    result.neighbor_rounds = neighbor_rounds
    # Random sampling cannot mark which slots were consumed, so the settle
    # finish starts from slot 0 (reprocessing); first-k resumes after the
    # consumed prefix.
    ctx.final_start = neighbor_rounds if sampling == "first" else 0


KOUT = SamplingSpec(
    name="kout",
    fn=kout_sampling,
    params=("neighbor_rounds", "sampling"),
    validate=_validate,
)
