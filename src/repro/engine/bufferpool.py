"""Reusable scratch buffers for the hot-path kernels.

The vectorized finish loops (``propagate_pass`` / ``hook_pass``) gather
edge-sized candidate arrays every round, ``compress`` a block of jump
scratch every pass, and Afforest's neighbour rounds one out-edge per
vertex; on a profile those allocations dominate the non-compute time of
small- and medium-graph runs.  A :class:`BufferPool` keeps one named
buffer per kernel slot and hands out prefix views, so a converged run
allocates each buffer exactly once and every later round reuses its
pages.

The pool reports every *fresh* allocation (in bytes) through an
``on_alloc`` callback — the backends wire it to the ``bytes_allocated``
counter, so a profiled run shows exactly how much pooled scratch the
round structure demanded (a warm pool reports zero).  It sees nothing
else: a gather *into* a pooled buffer still allocates whatever NumPy
allocates inside ``np.take``.  In raise mode (the default) that is an
output-sized temporary on every call, which is copied into ``out``
(tracemalloc: 8,388,936 bytes for a 2^20-element int64 gather, against
232 in clip mode), and in either mode a read-only or non-``intp``
index array is first copied (8,388,952 bytes for a 2^20-element int32
index).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Named, growable scratch arrays handed out as prefix views.

    ``get(name, size, dtype)`` returns a contiguous array of exactly
    ``size`` elements, reusing the buffer registered under ``name`` when
    its capacity and dtype still fit, and reallocating (and reporting the
    fresh bytes) otherwise.  Contents are unspecified: callers must
    overwrite the view before reading it (all pool users fill it with
    ``np.take(..., out=...)`` / ufunc ``out=`` writes).
    """

    __slots__ = ("_buffers", "_on_alloc")

    def __init__(
        self, on_alloc: Callable[[int], None] | None = None
    ) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._on_alloc = on_alloc

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        """A ``size``-element scratch view under ``name`` (uninitialised)."""
        dtype = np.dtype(dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.shape[0] < size or buf.dtype != dtype:
            buf = np.empty(max(int(size), 1), dtype=dtype)
            self._buffers[name] = buf
            if self._on_alloc is not None:
                self._on_alloc(buf.nbytes)
        return buf[:size]

    def take(self, arr: np.ndarray, idx: np.ndarray, name: str) -> np.ndarray:
        """Pooled gather: ``arr[idx]`` materialised into buffer ``name``.

        Raise mode, so an out-of-range index raises ``IndexError``; in
        that mode NumPy gathers into a hidden output-sized temporary and
        copies it into the buffer, so each call still allocates that much
        (see the module docstring).
        """
        out = self.get(name, int(idx.shape[0]), arr.dtype)
        np.take(arr, idx, out=out)
        return out

    def clear(self) -> None:
        """Drop every buffer (subsequent gets allocate fresh)."""
        self._buffers.clear()
