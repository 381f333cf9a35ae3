"""Reusable scratch buffers for the hot-path kernels.

The vectorized finish loops (``propagate_pass`` / ``hook_pass``) gather
edge-sized candidate arrays every round, and ``compress`` a block of
jump scratch every pass; on a profile those
allocations dominate the non-compute time of small- and medium-graph
runs.  A :class:`BufferPool` keeps one named buffer per kernel slot and
hands out prefix views, so a converged run allocates each buffer exactly
once and every later round reuses it.

The pool reports every *fresh* allocation (in bytes) through an
``on_alloc`` callback — the backends wire it to the ``bytes_allocated``
counter, so a profiled run shows exactly how much scratch the round
structure demanded (a warm pool reports zero).
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
        """Pooled gather: ``arr[idx]`` materialised into buffer ``name``."""
        out = self.get(name, int(idx.shape[0]), arr.dtype)
        np.take(arr, idx, out=out)
        return out

    def clear(self) -> None:
        """Drop every buffer (subsequent gets allocate fresh)."""
        self._buffers.clear()
