"""Edge-block partitioning helpers shared by the engine's substrates.

The paper's central observation — link/compress apply to *arbitrary* edge
subsets independently (Theorem 1) — is what makes Afforest shardable.
This module holds the pure helpers the vectorized and distributed
backends build on:

- **contiguous CSR edge blocks** (:func:`partition_csr_blocks`): the
  vertex range ``[v_lo, v_hi)`` whose neighbour slots form the contiguous
  span ``indices[e_lo:e_hi]``, cut so every block carries roughly the same
  number of edge slots regardless of degree skew (the distributed
  backend's edge shards, one block per rank);
- **even 1-D cuts** (:func:`block_bounds`): the distributed backend's
  vertex-ownership map and its cuts of flat edge batches and of each
  neighbour round's vertices;
- the **bottom-up BFS block sweep** (:func:`bottom_up_block`), run once
  over all vertices by the vectorized backend and once per rank by the
  distributed backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import ConfigurationError
from repro.nputil import segment_ranges

__all__ = [
    "EdgeBlock",
    "block_bounds",
    "bottom_up_block",
    "partition_csr_blocks",
]


@dataclass(frozen=True)
class EdgeBlock:
    """A contiguous CSR edge block.

    Covers the vertex range ``[v_lo, v_hi)``; because CSR stores each
    vertex's neighbours contiguously, the block's edge slots are the
    contiguous span ``[e_lo, e_hi)`` of ``indices``.
    """

    v_lo: int
    v_hi: int
    e_lo: int
    e_hi: int

    @property
    def num_vertices(self) -> int:
        """Vertices covered by the block."""
        return self.v_hi - self.v_lo

    @property
    def num_edges(self) -> int:
        """Directed edge slots covered by the block."""
        return self.e_hi - self.e_lo


def partition_csr_blocks(indptr: np.ndarray, num_blocks: int) -> list[EdgeBlock]:
    """Cut the CSR structure into ``num_blocks`` contiguous edge blocks.

    Block boundaries fall on vertex boundaries (a vertex's neighbour list
    is never split) and are chosen by binary-searching ``indptr`` at even
    edge-count targets, so blocks are edge-balanced even under power-law
    degree skew.  Together the blocks cover every vertex exactly once;
    trailing isolated vertices land in the last block.
    """
    if num_blocks < 1:
        raise ConfigurationError(f"num_blocks must be >= 1, got {num_blocks}")
    n = int(indptr.shape[0] - 1)
    m = int(indptr[-1]) if n else 0
    targets = np.linspace(0, m, num_blocks + 1)
    cuts = np.searchsorted(indptr, targets, side="left").astype(np.int64)
    cuts[0] = 0
    cuts[-1] = n
    cuts = np.maximum.accumulate(np.clip(cuts, 0, n))
    return [
        EdgeBlock(
            int(cuts[b]),
            int(cuts[b + 1]),
            int(indptr[cuts[b]]),
            int(indptr[cuts[b + 1]]),
        )
        for b in range(num_blocks)
    ]


def block_bounds(total: int, num_ranks: int) -> np.ndarray:
    """Even 1-D block boundaries: ``num_ranks + 1`` int64 cut points over
    ``[0, total)``, block ``k`` being ``[bounds[k], bounds[k + 1])``."""
    if num_ranks < 1:
        raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
    return np.linspace(0, total, num_ranks + 1).astype(np.int64)


def bottom_up_block(
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    mask: np.ndarray,
    v_lo: int,
    v_hi: int,
    label: int,
    sentinel: int,
) -> tuple[np.ndarray, int, int]:
    """Bottom-up BFS sweep over the unvisited vertices of ``[v_lo, v_hi)``.

    Every block vertex still carrying ``sentinel`` scans its own neighbour
    list and adopts ``label`` when a neighbour is in the frontier
    (``mask`` nonzero).  Writes stay inside the block (each vertex writes
    only its own π slot), so the sweep is race-free across blocks.

    Returns ``(found vertices, modeled edges, gathered edges)`` —
    ``modeled`` is the early-exit scan count (stop at the first frontier
    hit, what real hardware touches); ``gathered`` the full vectorized
    gather volume.  Shared by the vectorized backend (one block spanning
    all vertices) and the distributed backend (one block per rank).
    """
    empty = np.empty(0, dtype=VERTEX_DTYPE)
    block = pi[v_lo:v_hi]
    unvisited = (v_lo + np.nonzero(block == sentinel)[0]).astype(VERTEX_DTYPE)
    if unvisited.size == 0:
        return empty, 0, 0
    starts = indptr[unvisited]
    counts = (indptr[unvisited + 1] - starts).astype(VERTEX_DTYPE)
    total = int(counts.sum())
    if total == 0:
        return empty, 0, 0
    offsets = np.repeat(starts, counts) + segment_ranges(counts)
    hit = mask[indices[offsets]] != 0

    # Segmented first-hit position (within each vertex's neighbour list):
    # positions with no hit get the segment length (i.e. "scanned all").
    within = segment_ranges(counts)
    pos_or_len = np.where(hit, within, np.repeat(counts, counts))
    nonempty = counts > 0
    seg_starts = np.zeros(unvisited.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=seg_starts[1:])
    first_hit = np.minimum.reduceat(pos_or_len, seg_starts[nonempty])

    found_nonempty = first_hit < counts[nonempty]
    found = unvisited[nonempty][found_nonempty]
    pi[found] = label

    # Early-exit model: scanned first_hit + 1 slots on a hit, the whole
    # list otherwise.
    modeled = int(
        np.where(found_nonempty, first_hit + 1, counts[nonempty]).sum()
    )
    return found.astype(VERTEX_DTYPE), modeled, total
