"""Incremental connectivity on top of the ``link`` primitive.

Afforest's ``link`` is exactly an edge-insertion operation on the parent
forest (Theorem 1 holds for any edge order, including one interleaved
with queries), so the library gets incremental connectivity — the
streaming-graph workload that motivates much of the CC literature — for
free.  :class:`IncrementalConnectivity` packages it with amortised path
compression and component bookkeeping.

Every update costs O(batch · depth), never O(n).  A bulk insertion
counts its merges from the batch's own endpoints: the distinct roots
they reach before :func:`~repro.core.link.link_batch`, minus the
distinct roots those roots reach after it.  The count is exact because
``link_batch`` writes only roots reached from an endpoint's chain, each
under a vertex of a different endpoint-holding tree (Invariant 1 puts
that vertex's root below the hooked one), so no other tree changes.
``link_batch`` itself returns its round count, which the engine reports
as ``link_rounds``; counting distinct hooked roots inside it would put a
per-round dedup on the solver's hot path, so it stays as it is.

Deletions are not supported (the tree-hooking family is inherently
incremental-only); re-solve with ``engine.run("afforest", g)`` when edges
disappear.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.core.compress import compress_all
from repro.core.link import link, link_batch
from repro.errors import ConfigurationError
from repro.nputil import sorted_unique, vertex_ids
from repro.unionfind.parent import ParentArray


class IncrementalConnectivity:
    """Connectivity under streaming edge insertions.

    Parameters
    ----------
    num_vertices:
        Fixed vertex universe (vertices cannot be added later).
    compress_every:
        A full vectorized compression runs after this many insertions,
        bounding tree depths (the incremental analogue of Afforest's
        interleaved ``compress`` phases).  ``0`` disables periodic
        compression entirely; correctness is then carried by the *lazy*
        query paths instead: :meth:`find` path-compresses exactly the
        chain it walks (and nothing else), and :meth:`labels` still
        performs a full compression as a side effect.  Deep trees
        therefore cost O(depth) per query until something compresses
        them, but every answer stays exact.
    """

    def __init__(self, num_vertices: int, *, compress_every: int = 4096) -> None:
        if num_vertices < 0:
            raise ConfigurationError(
                f"num_vertices must be >= 0, got {num_vertices}"
            )
        if compress_every < 0:
            raise ConfigurationError(
                f"compress_every must be >= 0, got {compress_every}"
            )
        self._pi = np.arange(num_vertices, dtype=VERTEX_DTYPE)
        self._compress_every = compress_every
        self._since_compress = 0
        self._num_components = num_vertices
        self._edges_inserted = 0

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_labels(
        cls, labels: np.ndarray, **kwargs
    ) -> "IncrementalConnectivity":
        """Adopt a solved labeling (any valid parent array) as the start.

        ``labels`` must satisfy Invariant 1 (``pi[x] <= x``, acyclic) —
        exactly what every engine finish produces — so a batch solve can
        be promoted into a streaming structure without replaying edges.
        The array is copied; the caller's labeling stays untouched.
        """
        parents = ParentArray(np.asarray(labels))  # copies
        parents.check_invariant1()
        inc = cls(int(labels.shape[0]), **kwargs)
        inc._pi = parents.pi
        inc._num_components = parents.num_trees()
        return inc

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``{u, v}``; True if it connected two components."""
        self._check(u)
        self._check(v)
        merged = link(self._pi, u, v)
        if merged:
            self._num_components -= 1
        self._edges_inserted += 1
        self._maybe_compress(1)
        return merged

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Bulk insertion; returns the number of components merged.

        Work is O(batch · depth): the merges are the distinct roots of
        the 2·batch endpoints before :func:`link_batch` minus the
        distinct roots those roots climb to after it.  Only trees that
        hold an endpoint can change, so no census of all n vertices is
        needed.
        """
        src = vertex_ids(src)
        dst = vertex_ids(dst)
        if src.shape != dst.shape:
            raise ConfigurationError("src/dst must have equal length")
        if src.size and (
            min(src.min(), dst.min()) < 0
            or max(src.max(), dst.max()) >= self.num_vertices
        ):
            raise ConfigurationError("edge endpoint out of range")
        roots = sorted_unique(_roots(self._pi, np.concatenate([src, dst])))
        link_batch(self._pi, src, dst)
        # An endpoint's chain is untouched below its old root, so its new
        # root is that old root's new root.
        merged = roots.size - sorted_unique(_roots(self._pi, roots)).size
        self._num_components -= merged
        self._edges_inserted += int(src.shape[0])
        self._maybe_compress(int(src.shape[0]))
        return merged

    def _maybe_compress(self, inserted: int) -> None:
        if self._compress_every == 0:
            return
        self._since_compress += inserted
        if self._since_compress >= self._compress_every:
            compress_all(self._pi)
            self._since_compress = 0

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def num_vertices(self) -> int:
        return int(self._pi.shape[0])

    @property
    def num_components(self) -> int:
        """Current number of connected components."""
        return self._num_components

    @property
    def edges_inserted(self) -> int:
        return self._edges_inserted

    def find(self, v: int) -> int:
        """Component representative of ``v`` (with path compression)."""
        self._check(v)
        pi = self._pi
        root = v
        while pi[root] != root:
            root = int(pi[root])
        # Path compression: point the walked chain at the root.
        while pi[v] != root:
            pi[v], v = root, int(pi[v])
        return root

    def connected(self, u: int, v: int) -> bool:
        """True if ``u`` and ``v`` are currently in the same component."""
        return self.find(u) == self.find(v)

    def labels(self) -> np.ndarray:
        """A full component labeling (compresses as a side effect)."""
        compress_all(self._pi)
        self._since_compress = 0
        return self._pi.copy()

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ConfigurationError(
                f"vertex {v} out of range for {self.num_vertices}-vertex universe"
            )


def _roots(pi: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The root of each of ``vertices``, climbing all chains in lockstep."""
    r = pi[vertices]
    while True:
        up = pi[r]
        if np.array_equal(up, r):
            return r
        r = up
