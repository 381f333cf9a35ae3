"""The ``compress`` primitive (paper Fig. 2b).

``compress(v, pi)`` repeatedly replaces ``pi[v]`` with ``pi[pi[v]]`` until
``v`` points directly at its root, reducing every tree to depth one when
applied over all vertices (Theorem 2).  Safe under concurrency: each worker
writes only its own ``pi[v]``; reads of other entries can observe a
shortened-but-valid path.

Forms:

- :func:`compress` — scalar;
- :func:`compress_kernel` — generator kernel for the simulated machine;
- :func:`compress_all` — vectorized full-array compression in vertex
  order: ascending blocks of :data:`COMPRESS_BLOCK` vertices, each
  gathered ``blk <- pi[blk]`` until it stops changing.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.constants import ITERATION_CAP_FACTOR, ITERATION_CAP_SLACK
from repro.errors import ConvergenceError
from repro.parallel.machine import KernelContext

#: Vertices per block of :func:`compress_all`'s in-order walk: 64 KiB of
#: int32 labels, so a block and its gather buffer stay cache-resident.
COMPRESS_BLOCK = 1 << 14


def compress(pi: np.ndarray, v: int) -> int:
    """Scalar compress: point ``v`` directly at its root.

    Returns the number of shortcut steps performed (0 when ``v`` already
    points at a root) — the per-vertex tree depth beyond one.
    """
    steps = 0
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    while pi[pi[v]] != pi[v]:
        pi[v] = pi[pi[v]]
        steps += 1
        if steps > cap:
            raise ConvergenceError(
                f"compress({v}) exceeded {cap} steps — cycle in pi?"
            )
    return steps


def compress_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
) -> Generator[None, None, None]:
    """Machine kernel: concurrent compress of vertex ``v``.

    Matches the paper's loop exactly: the exit condition re-reads
    ``pi[pi[v]]`` each iteration, so concurrent shortening by other workers
    (which only ever shortens paths, per Theorem 2) is handled naturally.
    """
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    steps = 0
    parent = yield from ctx.read(pi, v)
    grand = yield from ctx.read(pi, parent)
    while grand != parent:
        steps += 1
        if steps > cap:
            raise ConvergenceError(
                f"compress_kernel({v}) exceeded {cap} steps"
            )
        yield from ctx.write(pi, v, grand)
        parent = grand
        grand = yield from ctx.read(pi, parent)


def compress_all(pi: np.ndarray, scratch: np.ndarray | None = None) -> int:
    """Vectorized compression of the entire parent array, in vertex order.

    Walks π in ascending blocks of :data:`COMPRESS_BLOCK` vertices and
    runs ``blk <- pi[blk]`` on each block until it stops changing — the
    order GBBS/ConnectIt's Afforest compresses in.  Under Invariant 1
    (``pi[x] <= x``) every earlier block already points at its roots when
    a block is reached, so a vertex whose parent lies below the block
    settles in one gather; only chains inside the block need more
    sweeps, which double their reach like ``pi <- pi[pi]``.  The fixpoint
    (every vertex pointing at its root) is unique, so the result is the
    one whole-array pointer doubling reaches, whatever π's shape.

    ``scratch`` is an optional gather buffer of ``pi``'s dtype holding at
    least ``min(n, COMPRESS_BLOCK)`` elements; without one, a buffer that
    size is allocated.  Returns the largest number of changing sweeps any
    block needed: 0 exactly when π was already flat, and whole-array
    doubling's pass count when ``n <= COMPRESS_BLOCK``.
    """
    n = int(pi.shape[0])
    block = COMPRESS_BLOCK
    if scratch is None:
        scratch = np.empty(min(n, block), dtype=pi.dtype)
    cap = ITERATION_CAP_FACTOR * n + ITERATION_CAP_SLACK
    passes = 0
    for lo in range(0, n, block):
        blk = pi[lo : lo + block]
        nxt = scratch[: blk.shape[0]]
        sweeps = 0
        while True:
            np.take(pi, blk, out=nxt)
            if np.array_equal(nxt, blk):
                break
            blk[:] = nxt
            sweeps += 1
            if sweeps > cap:
                raise ConvergenceError(
                    f"compress_all exceeded {cap} passes — cycle in pi?"
                )
        passes = max(passes, sweeps)
    return passes
