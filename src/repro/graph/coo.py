"""Edge-list (COO) container and transforms.

The paper's GPU baseline (Soman et al.) operates on edge lists rather than
CSR; :class:`EdgeList` is the library's counterpart, also used as the interim
format of every graph builder and generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError


@dataclass(frozen=True)
class EdgeList:
    """A bag of directed edges over ``num_vertices`` vertices.

    ``src`` and ``dst`` are parallel ``int64`` arrays.  Duplicates and self
    loops are permitted; use the transform methods to normalise.
    """

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray

    def __post_init__(self) -> None:
        src = np.ascontiguousarray(self.src, dtype=VERTEX_DTYPE)
        dst = np.ascontiguousarray(self.dst, dtype=VERTEX_DTYPE)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.ndim != 1 or dst.ndim != 1 or src.shape != dst.shape:
            raise GraphFormatError("src/dst must be 1-D arrays of equal length")
        if self.num_vertices < 0:
            raise GraphFormatError("num_vertices must be non-negative")
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= self.num_vertices:
                raise GraphFormatError(
                    f"edge endpoints must lie in [0, {self.num_vertices}); "
                    f"found range [{lo}, {hi}]"
                )

    # ------------------------------------------------------------------ #

    @property
    def num_edges(self) -> int:
        """Number of stored (directed) edge records."""
        return int(self.src.shape[0])

    def symmetrized(self) -> "EdgeList":
        """Return an edge list containing both orientations of every edge.

        Self loops are kept single — duplicating them would double-count the
        loop in CSR degree.
        """
        loops = self.src == self.dst
        rev_src = self.dst[~loops]
        rev_dst = self.src[~loops]
        return EdgeList(
            self.num_vertices,
            np.concatenate([self.src, rev_src]),
            np.concatenate([self.dst, rev_dst]),
        )

    def deduplicated(self) -> "EdgeList":
        """Drop exact duplicate ``(src, dst)`` records (orientation-aware)."""
        if self.num_edges == 0:
            return self
        key = self.src * np.int64(self.num_vertices or 1) + self.dst
        _, first = np.unique(key, return_index=True)
        first.sort()
        return EdgeList(self.num_vertices, self.src[first], self.dst[first])

    def without_self_loops(self) -> "EdgeList":
        """Drop ``(v, v)`` records."""
        keep = self.src != self.dst
        return EdgeList(self.num_vertices, self.src[keep], self.dst[keep])

    def canonicalized(self) -> "EdgeList":
        """Normalise each record to ``src <= dst`` (undirected canonical
        form), preserving record order."""
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        return EdgeList(self.num_vertices, lo, hi)

    def concatenated(self, other: "EdgeList") -> "EdgeList":
        """Append ``other``'s records (vertex counts must agree)."""
        if other.num_vertices != self.num_vertices:
            raise GraphFormatError("cannot concatenate edge lists of different orders")
        return EdgeList(
            self.num_vertices,
            np.concatenate([self.src, other.src]),
            np.concatenate([self.dst, other.dst]),
        )

    def relabeled(self, mapping: np.ndarray, num_vertices: int) -> "EdgeList":
        """Apply a vertex relabeling ``v -> mapping[v]``."""
        mapping = np.ascontiguousarray(mapping, dtype=VERTEX_DTYPE)
        if mapping.shape[0] != self.num_vertices:
            raise GraphFormatError("mapping length must equal num_vertices")
        return EdgeList(num_vertices, mapping[self.src], mapping[self.dst])

    def as_pairs(self) -> list[tuple[int, int]]:
        """Edges as Python tuples (slow path, for tests)."""
        return [(int(u), int(v)) for u, v in zip(self.src, self.dst)]
