"""Construction of :class:`~repro.graph.csr.CSRGraph` from edge data.

The builders perform the normalisation pipeline the GAP suite applies when
loading graphs: symmetrize, optionally drop duplicates and self loops, then
assemble the CSR arrays.  Neighbour lists are sorted by default, which both
matches GAP's loader and makes ``has_edge`` logarithmic; that default path
sorts the edge keys ``src * n + dst`` once, because the sorted keys already
are CSR order.

A note relevant to the paper: Afforest's neighbour sampling uses "the first
appearing neighbors of each vertex" (Sec. VI-A), i.e. the neighbour order in
the CSR structure is semantically meaningful for sampling quality.  Builders
therefore support ``sort_neighbors=False`` to preserve insertion order, and
:func:`repro.core.strategies` exposes explicit neighbour-order shuffles.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import GraphFormatError
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph


#: Largest vertex count whose edge keys ``src * n + dst`` fit in int64.
_MAX_KEYED_VERTICES = math.isqrt(int(np.iinfo(np.int64).max))

#: Bytes per vertex of the sorted build's three n-sized int64 arrays:
#: ``row_starts``' needles (an ``arange`` and its product) and ``indptr``.
_VERTEX_BYTES = 24


def _physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where ``os.sysconf`` does not
    report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_vertex_memory(largest_id: int) -> None:
    """Raise :class:`~repro.errors.GraphFormatError` naming ``largest_id``
    when a graph sized by it, ``largest_id + 1`` vertices, needs more
    memory for its vertex arrays than the machine has.

    Builders that infer the vertex count from the ids call it before
    they allocate anything n-sized, so one far-out id in a small file
    fails by name instead of getting the process killed.
    """
    memory = _physical_memory()
    need = _VERTEX_BYTES * (largest_id + 1)
    if memory is not None and need > memory:
        raise GraphFormatError(
            f"vertex id {largest_id} implies {largest_id + 1} vertices, "
            f"whose arrays need {need} bytes, more than the {memory} bytes "
            "of physical memory"
        )


def edge_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Encode edges as int64 keys ``src * n + dst``.

    Keys order edges by source, then destination: ascending keys are CSR
    order.
    """
    keys = np.empty(src.shape[0], dtype=np.int64)
    _put_keys(src, dst, n, keys)
    return keys


def _put_keys(
    src: np.ndarray, dst: np.ndarray, n: int, out: np.ndarray
) -> None:
    """Write :func:`edge_keys` of ``src, dst`` into the int64 slice ``out``."""
    if n > _MAX_KEYED_VERTICES:
        raise GraphFormatError(
            f"{n} vertices exceed the int64 edge-key range "
            f"(at most {_MAX_KEYED_VERTICES})"
        )
    np.multiply(src, np.int64(n), out=out)
    out += dst


def row_starts(keys: np.ndarray, n: int) -> np.ndarray:
    """``indptr`` of ascending :func:`edge_keys`: where each row's first key
    ``v * n`` would sort, for v = 0..n."""
    return np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)


def csr_from_sorted_keys(
    keys: np.ndarray, n: int, *, dedup: bool = True
) -> CSRGraph:
    """Assemble a CSR graph from ascending :func:`edge_keys`.

    Sorted keys already are CSR order (rows by source, ascending
    neighbours), so assembly is a drop of adjacent duplicates, made only
    if one exists, then a row search and a decode.  ``keys`` is consumed:
    unless duplicates were dropped, its buffer becomes the graph's
    ``indices``.
    """
    if dedup and keys.size > 1:
        fresh = keys[1:] != keys[:-1]
        if not fresh.all():
            keys = keys[np.concatenate(([True], fresh))]
    indptr = row_starts(keys, n)
    np.remainder(keys, max(n, 1), out=keys)  # in place: the columns
    return CSRGraph(indptr, keys, validate=False)


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    indptr = np.zeros(n + 1, dtype=VERTEX_DTYPE)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _sorted_keys(
    edges: EdgeList, symmetrize: bool, drop_self_loops: bool
) -> np.ndarray:
    """The sorted :func:`edge_keys` of the normalised records: one sort
    yields the sorted rows, and dedup then only compares neighbours.

    Both orientations are written into one buffer.  Only an input with a
    self loop copies its records: to drop the loops, or to keep each loop
    single under ``symmetrize``.
    """
    n, src, dst = edges.num_vertices, edges.src, edges.dst
    keep = src != dst
    if keep.all():  # no self loop: no copy
        rev_src, rev_dst = dst, src
    elif drop_self_loops:
        src, dst = src[keep], dst[keep]
        rev_src, rev_dst = dst, src
    else:  # self loops stay single
        rev_src, rev_dst = dst[keep], src[keep]
    if not symmetrize:
        keys = edge_keys(src, dst, n)
    else:
        m = src.shape[0]
        keys = np.empty(m + rev_src.shape[0], dtype=np.int64)
        _put_keys(src, dst, n, keys[:m])
        _put_keys(rev_src, rev_dst, n, keys[m:])
    keys.sort()
    return keys


def build_csr(
    edges: EdgeList,
    *,
    symmetrize: bool = True,
    dedup: bool = True,
    drop_self_loops: bool = True,
    sort_neighbors: bool = True,
) -> CSRGraph:
    """Assemble a CSR graph from an edge list.

    Parameters
    ----------
    edges:
        Input edge records (any orientation, duplicates allowed).
    symmetrize:
        Store both orientations of every edge (default).  Required by every
        algorithm in this library; disable only for layout experiments.
    dedup:
        Drop parallel edges after symmetrization.
    drop_self_loops:
        Remove ``(v, v)`` records.
    sort_neighbors:
        Sort each neighbour list ascending.  Disable to preserve the input
        edge order within each list (relevant for neighbour sampling).
        The sorted path encodes edges as :func:`edge_keys`, so it takes at
        most 3,037,000,499 vertices and raises
        :class:`~repro.errors.GraphFormatError` beyond.
    """
    if sort_neighbors:
        keys = _sorted_keys(edges, symmetrize, drop_self_loops)
        return csr_from_sorted_keys(keys, edges.num_vertices, dedup=dedup)

    el = edges.without_self_loops() if drop_self_loops else edges
    n = el.num_vertices
    if symmetrize:
        el = el.symmetrized()
    if dedup:
        el = el.deduplicated()
    # Stable counting placement preserves per-row record order.
    order = np.argsort(el.src, kind="stable")
    return CSRGraph(_indptr(el.src, n), el.dst[order], validate=False)


def from_edge_array(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    **kwargs,
) -> CSRGraph:
    """Build a CSR graph from parallel endpoint arrays.

    ``num_vertices`` defaults to ``max(endpoint) + 1`` (0 for empty input),
    checked by :func:`require_vertex_memory`.  Keyword arguments are
    forwarded to :func:`build_csr`.
    """
    src = np.ascontiguousarray(src, dtype=VERTEX_DTYPE)
    dst = np.ascontiguousarray(dst, dtype=VERTEX_DTYPE)
    if num_vertices is None:
        num_vertices = (
            int(max(src.max(), dst.max())) + 1 if src.size else 0
        )
        require_vertex_memory(num_vertices - 1)
    return build_csr(EdgeList(num_vertices, src, dst), **kwargs)


def from_edge_list(
    pairs: Iterable[tuple[int, int]] | Sequence[tuple[int, int]],
    num_vertices: int | None = None,
    **kwargs,
) -> CSRGraph:
    """Build a CSR graph from an iterable of ``(u, v)`` pairs."""
    pairs = list(pairs)
    if pairs:
        arr = np.asarray(pairs, dtype=VERTEX_DTYPE)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphFormatError("pairs must be (u, v) tuples")
        src, dst = arr[:, 0], arr[:, 1]
    else:
        src = dst = np.empty(0, dtype=VERTEX_DTYPE)
    return from_edge_array(src, dst, num_vertices, **kwargs)


class GraphBuilder:
    """Incremental graph builder for examples and tests.

    Collects edges one at a time (amortised O(1) appends into Python lists)
    and assembles the CSR structure on :meth:`build`.
    """

    def __init__(self, num_vertices: int | None = None) -> None:
        self._num_vertices = num_vertices
        self._src: list[int] = []
        self._dst: list[int] = []

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Record the undirected edge ``{u, v}``; returns self for chaining."""
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        self._src.append(u)
        self._dst.append(v)
        return self

    def add_edges(self, pairs: Iterable[tuple[int, int]]) -> "GraphBuilder":
        """Record many undirected edges."""
        for u, v in pairs:
            self.add_edge(u, v)
        return self

    def add_path(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record the path ``v0 - v1 - ... - vk``."""
        for u, v in zip(vertices, vertices[1:]):
            self.add_edge(u, v)
        return self

    def add_cycle(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record the cycle through ``vertices``."""
        self.add_path(vertices)
        if len(vertices) > 1:
            self.add_edge(vertices[-1], vertices[0])
        return self

    def add_clique(self, vertices: Sequence[int]) -> "GraphBuilder":
        """Record all edges of a clique on ``vertices``."""
        for i, u in enumerate(vertices):
            for v in vertices[i + 1 :]:
                self.add_edge(u, v)
        return self

    def add_star(self, center: int, leaves: Sequence[int]) -> "GraphBuilder":
        """Record a star: ``center`` joined to each leaf."""
        for v in leaves:
            self.add_edge(center, v)
        return self

    def build(self, **kwargs) -> CSRGraph:
        """Assemble the CSR graph (kwargs forwarded to :func:`build_csr`)."""
        n = self._num_vertices
        if n is None:
            n = max(max(self._src, default=-1), max(self._dst, default=-1)) + 1
        src = np.asarray(self._src, dtype=VERTEX_DTYPE)
        dst = np.asarray(self._dst, dtype=VERTEX_DTYPE)
        return build_csr(EdgeList(n, src, dst), **kwargs)
