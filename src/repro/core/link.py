"""The ``link`` primitive (paper Fig. 3).

Given an edge ``(u, v)`` and the parent array π, ``link`` guarantees on
return that ``u`` and ``v`` lie in the same component tree, merging trees
if needed.  The loop walks both endpoints' ancestor chains; at each step it
tries to hook the higher-indexed candidate root onto the lower one with a
compare-and-swap, preserving Invariant 1 (``pi[x] <= x``).

Four implementations share these semantics:

- :func:`link` — plain scalar with optional counters (analysis runs);
- :func:`link_kernel` — generator kernel for the simulated machine, with a
  preemption point before every shared access (concurrent semantics);
- :func:`link_batch` — NumPy-vectorized over an edge batch, used by the
  performance implementation.  Conflicting concurrent hooks are resolved by
  ``np.minimum.at`` scatter-min, the batch analogue of "the winning CAS is
  the one writing the smallest l", and losers re-iterate exactly like the
  scalar CAS-failure path (case 3 of Lemma 5);
- :func:`link_out` — ``link_batch`` of one out-edge per vertex (a
  neighbour round), with the first round on an identity π as an
  elementwise minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

import numpy as np

from repro.constants import ITERATION_CAP_FACTOR, ITERATION_CAP_SLACK
from repro.errors import ConvergenceError
from repro.parallel.machine import KernelContext


@dataclass
class LinkCounters:
    """Instrumentation for scalar link runs (Table II / Sec. V-A).

    ``iterations_histogram[k]`` counts edges whose link loop ran ``k`` local
    iterations; ``max_chain`` is the longest ancestor chain walked.
    """

    edges_processed: int = 0
    total_iterations: int = 0
    max_iterations: int = 0
    max_chain: int = 0
    hooks: int = 0
    cas_failures: int = 0
    iterations_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def mean_iterations(self) -> float:
        """Average local link iterations per processed edge."""
        if self.edges_processed == 0:
            return 0.0
        return self.total_iterations / self.edges_processed

    def _record_edge(self, iters: int) -> None:
        self.edges_processed += 1
        self.total_iterations += iters
        if iters > self.max_iterations:
            self.max_iterations = iters
        self.iterations_histogram[iters] = (
            self.iterations_histogram.get(iters, 0) + 1
        )


def link(
    pi: np.ndarray,
    u: int,
    v: int,
    counters: LinkCounters | None = None,
) -> bool:
    """Scalar link: ensure ``u`` and ``v`` share a component tree in π.

    Returns True if a hook was performed (the trees were distinct).
    Single-threaded, so the CAS always succeeds when the candidate is a
    root; the loop structure is still the concurrent one.
    """
    p1 = int(pi[u])
    p2 = int(pi[v])
    iters = 0
    hooked = False
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    while p1 != p2:
        iters += 1
        if iters > cap:
            raise ConvergenceError(
                f"link({u}, {v}) exceeded {cap} iterations — corrupted pi?"
            )
        if p1 < p2:
            low, high = p1, p2
        else:
            low, high = p2, p1
        p_high = int(pi[high])
        if p_high == low:
            break  # already hooked by this or another edge
        if p_high == high:
            # high is a root: hook it under low (sequential CAS succeeds).
            pi[high] = low
            hooked = True
            if counters is not None:
                counters.hooks += 1
            break
        # high was not a root — climb both chains and retry.
        p1 = int(pi[p_high])
        p2 = int(pi[low])
        if counters is not None and iters > counters.max_chain:
            counters.max_chain = iters
    if counters is not None:
        counters._record_edge(max(iters, 1))
    return hooked


def link_kernel(
    ctx: KernelContext,
    edge: int,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> Generator[None, None, None]:
    """Machine kernel: link edge ``(src[edge], dst[edge])`` concurrently.

    Faithful to the paper's concurrent formulation: each shared access is a
    separate preemption point, and hooks go through a real CAS that fails
    when another worker got there first.
    """
    u = int(src[edge])
    v = int(dst[edge])
    p1 = yield from ctx.read(pi, u)
    p2 = yield from ctx.read(pi, v)
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    iters = 0
    while p1 != p2:
        iters += 1
        if iters > cap:
            raise ConvergenceError(
                f"link_kernel({u}, {v}) exceeded {cap} iterations"
            )
        if p1 < p2:
            low, high = p1, p2
        else:
            low, high = p2, p1
        p_high = yield from ctx.read(pi, high)
        if p_high == low:
            break
        if p_high == high:
            ok = yield from ctx.cas(pi, high, high, low)
            if ok:
                break
        p1 = yield from ctx.read(pi, high)
        p1 = yield from ctx.read(pi, p1)
        p2 = yield from ctx.read(pi, low)


def link_batch(
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> int:
    """Vectorized link of a whole edge batch.

    Iterates SV-style rounds *restricted to the batch* until every edge's
    endpoints share a root.  Each round:

    1. gathers candidate parents ``a = pi[..u..], b = pi[..v..]``;
    2. hooks roots: where ``pi[h] == h``, scatter-min writes the smallest
       competing ``l`` into ``pi[h]`` (CAS-winner semantics);
    3. climbs: edges that did not finish advance to
       ``(pi[pi[h]], pi[l])`` and go again.

    Returns the number of rounds executed.  O(rounds · batch) vectorized
    work; rounds is O(log n) in practice and capped for safety.  π and
    the round count depend only on the batch's set of edges, not on
    their order or multiplicity.
    """
    return _link_rounds(pi, pi[src], pi[dst], 0)


def _link_rounds(
    pi: np.ndarray, a: np.ndarray, b: np.ndarray, rounds: int
) -> int:
    """:func:`link_batch`'s round loop from the cursors ``(a, b)``, after
    ``rounds`` rounds already run; returns the total round count.

    Each round keeps the edges whose cursors differ and hooks those whose
    high cursor is a root.  Both selections compact through
    ``flatnonzero`` plus gathers, which at the loop's typical density is
    several times cheaper than boolean-mask indexing; the first is
    skipped when every edge is still apart.  Cursors are read only
    before the round's scatter-min, so they may be views of π.
    """
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    while True:
        active = a != b
        live = int(np.count_nonzero(active))
        if live == 0:
            return rounds
        rounds += 1
        if rounds > cap:
            raise ConvergenceError(
                f"link_batch exceeded {cap} rounds — corrupted pi?"
            )
        if live < a.shape[0]:
            keep = np.flatnonzero(active)
            a = a[keep]
            b = b[keep]
        h = np.maximum(a, b)
        l = np.minimum(a, b)
        hook = np.flatnonzero(pi[h] == h)
        np.minimum.at(pi, h[hook], l[hook])
        # Climb both chains (also resolves freshly hooked edges: their new
        # a and b meet at the common root and drop out next round).
        a = pi[pi[h]]
        b = pi[l]


#: Slots per block of :func:`is_identity`'s walk.
IDENTITY_BLOCK = 1 << 14


def is_identity(pi: np.ndarray) -> bool:
    """True when every vertex is its own root: ``pi[v] == v``.

    Reads the last slot first, which any link that hooked the last
    vertex has lowered, then compares π block by block against one
    block-sized ``arange`` advanced in place, stopping at the first
    block that differs: no n-sized temporary.
    """
    n = int(pi.shape[0])
    if n == 0:
        return True
    if pi[n - 1] != n - 1:
        return False
    ramp = np.arange(min(n, IDENTITY_BLOCK), dtype=pi.dtype)
    for lo in range(0, n, IDENTITY_BLOCK):
        blk = pi[lo : lo + IDENTITY_BLOCK]
        if not np.array_equal(blk, ramp[: blk.shape[0]]):
            return False
        ramp += IDENTITY_BLOCK
    return True


def is_one_flat_tree(pi: np.ndarray) -> bool:
    """True when every vertex points at vertex 0 (or there is none): one
    flat tree, whose root is 0 under Invariant 1.  No link can change
    such a π.  Reads the last slot first, so a π that ends in a nonzero
    slot answers without a scan.
    """
    n = int(pi.shape[0])
    return n == 0 or bool(pi[n - 1] == 0 and not pi.any())


def link_out(pi: np.ndarray, nbr: np.ndarray) -> int:
    """Vectorized link of one out-edge per vertex: ``(v, nbr[v])`` for
    every ``v``, where ``nbr[v] == v`` means ``v`` has no edge.

    Leaves π and the round count exactly as
    ``link_batch(pi, arange(n), nbr)`` does, for any π.  On a π that is
    not the identity the round loop starts from the cursors
    ``(π, π[nbr])``, its ``a`` cursors π itself.  When π is the
    identity (tested on π itself), every endpoint is a root and each
    vertex owns one edge, so round 1 needs no gathers or root test:
    ``π ← minimum(π, nbr)`` hooks every edge that points down, and one
    scatter-min hooks the edges that point up.  Round 2 then continues,
    from its cursors, only the edges that may still be apart: every up
    edge, plus each down edge ``(t, nbr[t])`` whose ``π[t]`` an up edge
    lowered below ``nbr[t]``.  Every other down edge has ``π[t] ==
    nbr[t]``, so both its round-2 cursors read ``π[nbr[t]]``.
    """
    if not is_identity(pi):
        return _link_rounds(pi, pi, pi[nbr], 0)
    up = np.flatnonzero(nbr > pi)  # π is the identity: π[u] == u
    if up.shape[0] == 0 and not (nbr < pi).any():
        return 0  # no vertex has an edge
    tgt = nbr[up]
    np.minimum(pi, nbr, out=pi)
    np.minimum.at(pi, tgt, up)
    # t's own edge is lowered iff its hook's winner u (unique: each u owns
    # one edge) lies below nbr[t] < t; a fan-in of up edges yields t once.
    tnbr = nbr[tgt]
    low = tgt[(pi[tgt] == up) & (up < tnbr) & (tnbr < tgt)]
    h = np.concatenate((tgt, low))
    l = np.concatenate((up, nbr[low]))
    return _link_rounds(pi, pi[pi[h]], pi[l], 1)
