"""Shared vectorised array utilities.

These implement the flat "expand CSR slices without a Python loop" patterns
used across the library: frontier expansion in BFS, remaining-neighbour
flattening in Afforest's final phase, and frontier edge gathering in
data-driven label propagation; plus the sort-based distinct-value pass
that stands in for a flag-less ``np.unique``, the min-union of two
sorted delta sets, the vertex-id dtype check
that serving runs at request submission and before its ``int64`` cast,
and the integer check that algorithms and generators run on their count and
size parameters.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import ConfigurationError

__all__ = [
    "segment_ranges",
    "sorted_unique",
    "merge_min",
    "vertex_ids",
    "require_integer_ids",
    "require_int",
]


def require_int(name: str, value, minimum: int) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``value`` is
    an integer (Python or NumPy, not ``bool``) of at least ``minimum``.

    Algorithms check their count parameters and generators their sizes with it
    before any work starts, so a float, string or ``None`` fails by name
    instead of deep in a phase or an array constructor.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def require_integer_ids(arr: np.ndarray) -> None:
    """Raise :class:`~repro.errors.ConfigurationError` unless ``arr`` may
    hold vertex ids: a dtype of kind ``i`` or ``u``, or no elements.

    ``bool``, ``float`` and ``timedelta64`` arrays raise instead of having
    their values cast to ids; an empty batch passes whatever its dtype
    (``np.asarray([])`` is float64).  Reads the dtype only, never the data.
    """
    if arr.size and arr.dtype.kind not in "iu":
        raise ConfigurationError(f"non-integer vertex ids (dtype {arr.dtype})")


def vertex_ids(values) -> np.ndarray:
    """``values`` as a contiguous ``VERTEX_DTYPE`` array of vertex ids.

    Checked by :func:`require_integer_ids` before the cast, so no id is
    truncated.  O(1) beyond the cast itself.
    """
    arr = np.asarray(values)
    require_integer_ids(arr)
    return np.ascontiguousarray(arr, dtype=VERTEX_DTYPE)


def segment_ranges(counts: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(c)`` for each ``c`` in ``counts``.

    ``segment_ranges([2, 0, 3]) == [0, 1, 0, 1, 2]``.  Zero-length segments
    contribute nothing (and are dropped up front so the boundary resets
    land on distinct positions).
    """
    nz = counts[counts > 0].astype(VERTEX_DTYPE)
    total = int(nz.sum())
    if total == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    out = np.ones(total, dtype=VERTEX_DTYPE)
    out[0] = 0
    if nz.shape[0] > 1:
        out[np.cumsum(nz)[:-1]] = 1 - nz[:-1]
    return np.cumsum(out)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of ``values`` (flattened).

    Equal to a flag-less ``np.unique``, computed by one sort and a mask
    that keeps each entry differing from its predecessor.  NumPy >= 2.3
    answers a flag-less ``np.unique`` from a hash table and then sorts
    the result, several times slower than this on the integer arrays the
    library deduplicates; every earlier NumPy took this sort path itself.
    """
    out = np.sort(np.asarray(values), axis=None)
    if out.shape[0] < 2:
        return out
    keep = np.empty(out.shape[0], dtype=bool)
    keep[0] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def merge_min(
    idx: np.ndarray, val: np.ndarray, more_idx: np.ndarray, more_val: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union of two ``(index, value)`` sets whose indices are sorted and
    distinct; an index in both keeps the smaller value.

    Binary-searches ``more_idx`` into ``idx`` and inserts the new
    entries in order: O(k' log k + k + k') for ``k = len(idx)`` and
    ``k' = len(more_idx)``, no sort.  The inputs are left unchanged.
    """
    if idx.shape[0] == 0:
        return more_idx, more_val
    pos = np.searchsorted(idx, more_idx)
    both = idx[np.minimum(pos, idx.shape[0] - 1)] == more_idx
    if both.any():
        at = pos[both]
        val = val.copy()
        val[at] = np.minimum(val[at], more_val[both])
        new = ~both
        pos, more_idx, more_val = pos[new], more_idx[new], more_val[new]
    return np.insert(idx, pos, more_idx), np.insert(val, pos, more_val)
