"""Compressed Sparse Row (CSR) graph representation.

:class:`CSRGraph` is the canonical in-memory graph format of the library,
mirroring the representation used by the GAP benchmark suite and the paper's
CPU implementation.  It stores an adjacency structure as two flat arrays:

- ``indptr``  — length ``n + 1``; neighbours of vertex ``v`` occupy
  ``indices[indptr[v]:indptr[v + 1]]``;
- ``indices`` — length ``m`` (number of *directed* edges; an undirected edge
  appears once in each endpoint's neighbour list).

The structure is immutable after construction: both arrays are flagged
non-writeable so that algorithm kernels can never corrupt a shared graph.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError


class CSRGraph:
    """An immutable undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        Monotone non-decreasing ``int64`` array of length ``n + 1`` with
        ``indptr[0] == 0`` and ``indptr[-1] == len(indices)``.
    indices:
        ``int64`` array of neighbour ids, each in ``[0, n)``.
    validate:
        When true (default) the CSR invariants above are checked eagerly and
        a :class:`~repro.errors.GraphFormatError` is raised on violation.

    Notes
    -----
    The graph is *logically undirected*: builders emit a symmetric structure
    in which every edge ``{u, v}`` is stored in both neighbour lists.  The
    class itself does not re-verify symmetry on every construction (it is an
    ``O(m log m)`` check); use :func:`repro.graph.validate.check_symmetric`
    when ingesting untrusted data.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=VERTEX_DTYPE)
        indices = np.ascontiguousarray(indices, dtype=VERTEX_DTYPE)
        if validate:
            _validate_csr(indptr, indices)
        indptr.flags.writeable = False
        indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #

    @property
    def indptr(self) -> np.ndarray:
        """Row-pointer array (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """Flat neighbour-id array (read-only view)."""
        return self._indices

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return int(self._indptr.shape[0] - 1)

    @property
    def num_directed_edges(self) -> int:
        """Number of stored (directed) edges; ``2m`` for a symmetric graph
        without self loops."""
        return int(self._indices.shape[0])

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m``.

        Self loops are stored once and counted once; ordinary edges are
        stored twice and counted once.
        """
        loops = self.num_self_loops
        return (self.num_directed_edges - loops) // 2 + loops

    @property
    def num_self_loops(self) -> int:
        """Number of self-loop entries in the adjacency structure."""
        src = self.sources()
        return int(np.count_nonzero(src == self._indices))

    # ------------------------------------------------------------------ #
    # structure queries
    # ------------------------------------------------------------------ #

    def degree(self, v: int | None = None) -> np.ndarray | int:
        """Degree of vertex ``v``, or the full degree array when ``v`` is
        omitted (counting stored directed edges, i.e. self loops count 1)."""
        if v is None:
            return np.diff(self._indptr)
        self._check_vertex(v)
        return int(self._indptr[v + 1] - self._indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the neighbour list of ``v``."""
        self._check_vertex(v)
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def neighbor(self, v: int, i: int) -> int:
        """The ``i``-th stored neighbour of ``v`` (0-based).

        This is the access pattern of Afforest's neighbour-sampling rounds:
        round ``r`` touches ``neighbor(v, r - 1)`` for every vertex ``v``
        with degree at least ``r``.
        """
        self._check_vertex(v)
        lo = int(self._indptr[v])
        hi = int(self._indptr[v + 1])
        if not 0 <= i < hi - lo:
            raise IndexError(f"vertex {v} has degree {hi - lo}, no neighbor {i}")
        return int(self._indices[lo + i])

    def sources(self) -> np.ndarray:
        """Source-vertex id for every stored directed edge.

        Expands ``indptr`` to a length-``num_directed_edges`` array: entry
        ``e`` is the vertex whose neighbour list contains slot ``e``.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.degree()
        )

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored directed edges as parallel ``(src, dst)`` arrays."""
        return self.sources(), self._indices.copy()

    def undirected_edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """Each undirected edge exactly once, as ``(src, dst)`` with
        ``src <= dst``."""
        src, dst = self.sources(), self._indices
        keep = src <= dst
        return src[keep], dst[keep].copy()

    def has_edge(self, u: int, v: int) -> bool:
        """True if ``v`` appears in ``u``'s neighbour list.

        Uses binary search when the neighbour list is sorted (builders sort
        by default), falling back to a linear scan otherwise.
        """
        nbrs = self.neighbors(u)
        if nbrs.size == 0:
            return False
        if _is_sorted(nbrs):
            pos = int(np.searchsorted(nbrs, v))
            return pos < nbrs.size and int(nbrs[pos]) == v
        return bool(np.any(nbrs == v))

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"directed_edges={self.num_directed_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash(
            (self._indptr.tobytes(), self._indices.tobytes())
        )

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(
                f"vertex {v} out of range for graph with {self.num_vertices} vertices"
            )


def _is_sorted(a: np.ndarray) -> bool:
    return bool(np.all(a[:-1] <= a[1:]))


def _validate_csr(indptr: np.ndarray, indices: np.ndarray) -> None:
    if indptr.ndim != 1 or indices.ndim != 1:
        raise GraphFormatError("indptr and indices must be 1-D arrays")
    if indptr.shape[0] < 1:
        raise GraphFormatError("indptr must have at least one entry")
    if indptr[0] != 0:
        raise GraphFormatError(f"indptr[0] must be 0, got {indptr[0]}")
    if indptr[-1] != indices.shape[0]:
        raise GraphFormatError(
            f"indptr[-1] ({indptr[-1]}) must equal len(indices) ({indices.shape[0]})"
        )
    if np.any(np.diff(indptr) < 0):
        raise GraphFormatError("indptr must be monotone non-decreasing")
    n = indptr.shape[0] - 1
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise GraphFormatError(
            f"neighbour ids must lie in [0, {n}); "
            f"found range [{indices.min()}, {indices.max()}]"
        )
