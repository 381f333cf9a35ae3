"""Pluggable execution backends for the connectivity engine.

The paper's pipelines are built from a small set of primitives — link an
edge batch, compress the parent array, probe π for the giant component,
hook-and-shortcut — that admit three execution substrates:

- :class:`VectorizedBackend` — NumPy batch kernels
  (:func:`~repro.core.link.link_batch`, :func:`~repro.core.link.link_out`,
  :func:`~repro.core.compress.compress_all`); the wall-clock performance
  implementation.  Its neighbour rounds gather slot ``r`` of every vertex
  (:func:`round_neighbors`) into one pooled n-slot buffer, which every
  round reuses, and link it with ``link_out``;
- :class:`SimulatedBackend` — generator kernels on a
  :class:`~repro.parallel.machine.SimulatedMachine`, with a preemption
  point before every shared access; the instrumented concurrent-semantics
  implementation that produces work/span statistics and memory traces;
- :class:`DistributedBackend` — the vectorized kernels run per rank over
  edge shards (:mod:`repro.engine.partition`) and merged each superstep
  by scatter-min against a snapshot, over a metered
  :class:`~repro.distributed.comm.SimulatedComm`; deterministic by
  construction.  Its neighbour rounds take the same pooled
  :func:`round_neighbors` gather and run ``link_out``'s identity round
  rank by rank, each rank over its own window of vertices, cut at the
  round's vertices of degree ≤ r (:meth:`ExecutionBackend.short_vertices`,
  one pass over the degrees per round).

Each algorithm (:mod:`repro.engine.afforest`, :mod:`repro.engine.hooking`,
:mod:`repro.engine.propagation`, :mod:`repro.engine.traversal`) is
written *once* against :class:`ExecutionBackend`; choosing the substrate
is a constructor argument, not a separate code path.  Backend methods
record on the run's :class:`~repro.obs.trace.Tracer` (``backend.tracer``):
a span per phase and counters, gauges and histograms in its ``metrics``,
so profiled runs get a per-phase wall-time breakdown on any substrate.
Algorithms report each finished round through
:meth:`ExecutionBackend.beat`.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.constants import (
    ITERATION_CAP_FACTOR,
    ITERATION_CAP_SLACK,
    LABEL_DTYPE_POLICIES,
    NARROW_LABEL_LIMIT,
    NARROW_VERTEX_DTYPE,
    VERTEX_DTYPE,
)
from repro.core.compress import COMPRESS_BLOCK, compress_all, compress_kernel
from repro.core.link import (
    is_identity,
    is_one_flat_tree,
    link_batch,
    link_kernel,
    link_out,
)
from repro.core.sampling import approximate_largest_label
from repro.distributed.comm import SimulatedComm
from repro.engine import partition as _part
from repro.engine.bufferpool import BufferPool
from repro.errors import ConfigurationError, ConvergenceError
from repro.graph.csr import CSRGraph
from repro.nputil import merge_min, segment_ranges, sorted_unique
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.metrics import POW2_BUCKETS
from repro.obs.trace import Tracer
from repro.parallel.machine import KernelContext, SimulatedMachine
from repro.parallel.metrics import RunStats

__all__ = [
    "ExecutionBackend",
    "VectorizedBackend",
    "SimulatedBackend",
    "DistributedBackend",
    "backend_kinds",
    "make_backend",
    "resolve_label_dtype",
]

def resolve_label_dtype(n: int, policy: str = "auto") -> np.dtype:
    """The parent-array dtype for an ``n``-vertex run under ``policy``.

    ``auto`` narrows to :data:`~repro.constants.NARROW_VERTEX_DTYPE`
    whenever every storable value fits — vertex ids up to ``n - 1`` *and*
    the BFS pipelines' out-of-range sentinel ``n`` — and falls back to
    :data:`~repro.constants.VERTEX_DTYPE` above
    :data:`~repro.constants.NARROW_LABEL_LIMIT` (the overflow guard).
    ``wide`` always selects ``VERTEX_DTYPE``.  Narrowed labels never
    escape the engine: ``engine.run`` widens results back to
    ``VERTEX_DTYPE``, so the visible labeling is bit-identical.
    """
    if policy not in LABEL_DTYPE_POLICIES:
        raise ConfigurationError(
            f"unknown label dtype policy {policy!r}; "
            f"available: {list(LABEL_DTYPE_POLICIES)}"
        )
    if policy == "auto" and n <= NARROW_LABEL_LIMIT:
        return np.dtype(NARROW_VERTEX_DTYPE)
    return np.dtype(VERTEX_DTYPE)


# --------------------------------------------------------------------- #
# vectorized edge-batch helpers
# --------------------------------------------------------------------- #


def round_neighbors(
    graph: CSRGraph, short: np.ndarray, r: int, *, out: np.ndarray
) -> np.ndarray:
    """Neighbour round ``r`` as one out-edge per vertex, written into
    ``out`` (n slots of ``indices.dtype``): ``N(v)[r]``, or ``v`` itself
    (no edge) for the vertices ``short``, those with degree <= r.

    Slot ``r`` of every vertex is ``indptr[v] + r``, so one gather of
    ``indices[r:]`` at ``indptr[:-1]`` reads it, with no slot array and
    no vertex list.  ``indptr`` never decreases, so only the slots of
    degree <= r vertices can run past the last edge; clip mode bends
    those to the last slot and the self edges overwrite them.  Clip mode
    also spares the output-sized temporary that raise mode gathers into;
    NumPy still copies the read-only ``indptr`` before it gathers.  When
    ``m <= r`` every vertex is short: the identity.
    """
    indices = graph.indices
    if indices.shape[0] > r:
        np.take(indices[r:], graph.indptr[:-1], mode="clip", out=out)
    out[short] = short
    return out


def remaining_edges(
    graph: CSRGraph, verts: np.ndarray, start: int
) -> tuple[np.ndarray, np.ndarray]:
    """All edge slots ``start..deg(v)-1`` of the given vertices, flattened."""
    indptr, indices = graph.indptr, graph.indices
    counts = indptr[verts + 1] - indptr[verts] - start
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=VERTEX_DTYPE)
        return empty, empty
    src = np.repeat(verts, counts)
    offsets = np.repeat(indptr[verts] + start, counts) + segment_ranges(counts)
    return src, indices[offsets]


def _kept(pi: np.ndarray, largest: int | None) -> np.ndarray:
    """The vertices the final link phase gathers: every vertex outside
    the ``largest`` component, or all of them when nothing is skipped."""
    if largest is None:
        return np.arange(pi.shape[0])
    return np.flatnonzero(pi != largest)


def frontier_edges(
    pi: np.ndarray, graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every edge slot of the frontier, flattened: ``(offsets, dst,
    cand)`` — CSR positions, neighbours, and the label each slot pushes."""
    starts = graph.indptr[frontier]
    counts = graph.indptr[frontier + 1] - starts
    offsets = np.repeat(starts, counts) + segment_ranges(counts)
    return offsets, graph.indices[offsets], np.repeat(pi[frontier], counts)


# --------------------------------------------------------------------- #
# simulated-machine kernels
# --------------------------------------------------------------------- #


def _init_kernel(
    ctx: KernelContext, v: int, pi: np.ndarray
) -> Generator[None, None, None]:
    """Initialisation phase: ``pi[v] <- v`` (one shared write per vertex)."""
    yield from ctx.write(pi, v, v)


def _link_pair(
    ctx: KernelContext, pi: np.ndarray, u: int, v: int
) -> Generator[None, None, None]:
    """Shared concurrent-link body (same loop as link_kernel)."""
    fake_src = (u,)
    fake_dst = (v,)
    yield from link_kernel(ctx, 0, pi, fake_src, fake_dst)


def _neighbor_link_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    r: int,
) -> Generator[None, None, None]:
    """Neighbour-round kernel: link ``(v, N(v)[r])`` when degree permits.

    Graph-structure reads are not preemption points — only π is shared
    mutable state; the CSR arrays are immutable.
    """
    lo = int(indptr[v])
    if lo + r >= int(indptr[v + 1]):
        return
    w = int(indices[lo + r])
    yield from _link_pair(ctx, pi, v, w)


def _probe_kernel(
    ctx: KernelContext,
    i: int,
    pi: np.ndarray,
    probes: np.ndarray,
    out: np.ndarray,
) -> Generator[None, None, None]:
    """Component-search phase: read π at one random probe position."""
    out[i] = yield from ctx.read(pi, int(probes[i]))


def _final_link_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    start: int,
    largest: int | None,
    counters: dict,
) -> Generator[None, None, None]:
    """Final phase kernel: skip check then link remaining neighbours."""
    if largest is not None:
        label = yield from ctx.read(pi, v)
        if label == largest:
            counters["skipped"] += max(
                int(indptr[v + 1]) - int(indptr[v]) - start, 0
            )
            return
    lo = int(indptr[v]) + start
    hi = int(indptr[v + 1])
    for e in range(lo, hi):
        counters["final"] += 1
        yield from _link_pair(ctx, pi, v, int(indices[e]))


def _hook_kernel(
    ctx: KernelContext,
    e: int,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    changed: dict,
) -> Generator[None, None, None]:
    """SV hook for one directed edge, concurrent semantics.

    The hook is the Fig. 1 line-8 assignment ``π(π(v)) <- π(u)`` guarded to
    roots and performed with CAS; losers simply retry next outer iteration,
    as in the original algorithm.
    """
    u = int(src[e])
    v = int(dst[e])
    cu = yield from ctx.read(pi, u)
    cv = yield from ctx.read(pi, v)
    if cu < cv:
        pcv = yield from ctx.read(pi, cv)
        if pcv == cv:
            ok = yield from ctx.cas(pi, cv, cv, cu)
            if ok:
                changed["flag"] = True


def _fill_kernel(
    ctx: KernelContext, v: int, pi: np.ndarray, value: int
) -> Generator[None, None, None]:
    """Init phase for the BFS pipelines: ``pi[v] <- sentinel``."""
    yield from ctx.write(pi, v, int(value))


def _cas_min(
    ctx: KernelContext, pi: np.ndarray, v: int, cand: int
) -> Generator[None, None, bool]:
    """Atomic-min of ``cand`` into ``pi[v]`` via a CAS retry loop; True
    when this kernel's write landed."""
    while True:
        cur = yield from ctx.read(pi, v)
        if cand >= cur:
            return False
        ok = yield from ctx.cas(pi, v, cur, cand)
        if ok:
            return True


def _min_label_kernel(
    ctx: KernelContext,
    e: int,
    pi: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    changed: dict,
) -> Generator[None, None, None]:
    """Label-propagation edge kernel: atomic-min of π(u) into π(v)."""
    u = int(src[e])
    v = int(dst[e])
    cand = yield from ctx.read(pi, u)
    won = yield from _cas_min(ctx, pi, v, cand)
    if won:
        changed["count"] += 1


def _frontier_push_kernel(
    ctx: KernelContext,
    u: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    changed: set,
) -> Generator[None, None, None]:
    """Push one frontier vertex's label onto all its neighbours."""
    cand = yield from ctx.read(pi, u)
    lo = int(indptr[u])
    hi = int(indptr[u + 1])
    for e in range(lo, hi):
        v = int(indices[e])
        won = yield from _cas_min(ctx, pi, v, cand)
        if won:
            changed.add(v)


def _bottom_up_kernel(
    ctx: KernelContext,
    v: int,
    pi: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    in_frontier: np.ndarray,
    label: int,
    counters: dict,
    found: list,
) -> Generator[None, None, None]:
    """Pull step for one unvisited vertex: scan neighbours, stop at the
    first frontier hit (the frontier mask is parent-owned and read-only
    for the duration of the step, so it is not a preemption point)."""
    lo = int(indptr[v])
    hi = int(indptr[v + 1])
    for e in range(lo, hi):
        counters["edges"] += 1
        if in_frontier[int(indices[e])]:
            yield from ctx.write(pi, v, int(label))
            found.append(int(v))
            return


# --------------------------------------------------------------------- #
# backend interface
# --------------------------------------------------------------------- #


class ExecutionBackend:
    """Primitive operations a connectivity pipeline is written against.

    Subclasses implement the primitives on a concrete substrate.  Methods
    that have a meaningful convergence statistic on the vectorized
    substrate (rounds of ``link_batch``, sweeps of ``compress_all``)
    return it; substrates without such a notion return ``None`` and the
    pipeline skips the bookkeeping.
    """

    #: backend kind, one of :data:`BACKEND_KINDS` ("vectorized" /
    #: "simulated" / "distributed"); ``engine.run`` reports it.
    kind = "abstract"

    def __init__(self, *, label_dtype: str = "auto") -> None:
        if label_dtype not in LABEL_DTYPE_POLICIES:
            raise ConfigurationError(
                f"unknown label dtype policy {label_dtype!r}; "
                f"available: {list(LABEL_DTYPE_POLICIES)}"
            )
        #: the run's tracer (a disabled one between runs) and heartbeat
        #: monitor (or ``None``); ``engine.run`` sets both for its run.
        self.tracer = Tracer(False)
        self.heartbeat: HeartbeatMonitor | None = None
        #: label-width policy (see :func:`resolve_label_dtype`).
        self.label_dtype = label_dtype
        #: reusable scratch buffers for the hot-path kernels; fresh
        #: allocations land in the ``bytes_allocated`` counter.
        self.pool = BufferPool(self._count_alloc)
        # Identity-cached flat edge arrays of the last graph seen by
        # propagate_pass (LP sweeps reuse one batch across all rounds).
        self._edge_graph: CSRGraph | None = None
        self._edge_arrays: tuple[np.ndarray, np.ndarray] | None = None
        # Identity-cached degree array (sampling rounds and the final
        # link phase share one per run), and per round r the vertices of
        # degree <= r, reset with it.
        self._deg_graph: CSRGraph | None = None
        self._deg: np.ndarray | None = None
        self._shorts: dict[int, np.ndarray] = {}

    def beat(
        self,
        phase: str = "",
        *,
        frontier: int | None = None,
        changed: int | None = None,
        **extra: Any,
    ) -> None:
        """Report a finished pipeline round to the live heartbeat, if any."""
        if self.heartbeat is not None:
            self.heartbeat.beat(phase, frontier=frontier, changed=changed, **extra)

    def _count_alloc(self, nbytes: int) -> None:
        """Buffer-pool allocation callback -> ``bytes_allocated`` counter."""
        self.tracer.metrics.counter("bytes_allocated").inc(int(nbytes))

    def _label_dtype(self, n: int) -> np.dtype:
        """Resolve (and record) the parent-array dtype for an ``n``-vertex
        run: the ``label_dtype_bits`` gauge makes the narrowing decision
        visible in profiled runs."""
        dtype = resolve_label_dtype(n, self.label_dtype)
        self.tracer.metrics.gauge("label_dtype_bits").set(dtype.itemsize * 8)
        return dtype

    def _edges(self, graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
        """The graph's flat ``(src, dst)`` directed-edge arrays, cached."""
        if self._edge_graph is not graph:
            self._edge_graph = graph
            self._edge_arrays = graph.edge_array()
        assert self._edge_arrays is not None
        return self._edge_arrays

    def degrees(self, graph: CSRGraph) -> np.ndarray:
        """The graph's full degree array, cached like the edge arrays."""
        if self._deg_graph is not graph:
            self._deg_graph = graph
            self._deg = np.asarray(graph.degree())
            self._shorts = {}
        assert self._deg is not None
        return self._deg

    def short_vertices(self, graph: CSRGraph, r: int) -> np.ndarray:
        """The vertices of degree <= r, which have no slot ``r``: one
        pass over the degrees per round, cached with them.  Neighbour
        round ``r`` links the other ``n - len`` vertices."""
        deg = self.degrees(graph)
        short = self._shorts.get(r)
        if short is None:
            short = self._shorts[r] = np.flatnonzero(deg <= r)
        return short

    def _round_neighbors(self, graph: CSRGraph, r: int) -> np.ndarray:
        """Neighbour round ``r``'s out-edges (:func:`round_neighbors`) in
        the pooled ``round`` buffer."""
        out = self.pool.get("round", graph.num_vertices, graph.indices.dtype)
        return round_neighbors(graph, self.short_vertices(graph, r), r, out=out)

    def _remaining_slots(self, graph: CSRGraph, start: int) -> int:
        """How many slots :func:`remaining_edges` yields over every vertex
        after ``start`` rounds, without gathering them: all slots minus
        slot ``r`` of every vertex of degree > r, for each ``r < start``."""
        n = graph.num_vertices
        return graph.num_directed_edges - sum(
            n - self.short_vertices(graph, r).shape[0] for r in range(start)
        )

    # -- primitives ------------------------------------------------------ #

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Fresh parent array of ``n`` vertices: self-pointing by default,
        or constant ``fill`` (the BFS pipelines' unvisited sentinel)."""
        raise NotImplementedError

    def seed(self, pi: np.ndarray, v: int, label: int) -> None:
        """Driver write ``pi[v] = label`` between primitives (the BFS
        pipelines' component seed); a plain write unless the substrate
        must replicate it."""
        pi[v] = label

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int | None:
        """Link every edge of the batch into π."""
        raise NotImplementedError

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int | None:
        """Link ``(v, N(v)[r])`` for every vertex with degree > r.

        The vectorized and distributed substrates return 0 without
        gathering when π is all zero: every vertex then points at root
        0, so every edge's endpoints already share a tree."""
        raise NotImplementedError

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int | None]:
        """Afforest final phase: link slots ``start..`` of every vertex not
        in the ``largest`` component; returns (edges linked, edges skipped,
        link rounds or None)."""
        raise NotImplementedError

    def compress(self, pi: np.ndarray, *, phase: str) -> int | None:
        """Compress every tree in π to depth one."""
        raise NotImplementedError

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Probable giant-component label from ``sample_size`` π probes."""
        raise NotImplementedError

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """One Shiloach–Vishkin hook pass; True if any parent changed."""
        raise NotImplementedError

    # -- frontier / label primitives ------------------------------------- #

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One synchronous min-label sweep over every directed edge.

        Returns the number of edges whose source label beat the
        destination label — zero certifies the fixpoint (a pass reporting
        no change performed no writes on any substrate).
        """
        raise NotImplementedError

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Push labels from the active frontier onto its neighbours.

        Returns the next frontier: the sorted unique vertices whose label
        the push lowered.
        """
        raise NotImplementedError

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Pull step: every vertex still carrying ``sentinel`` scans its
        neighbours and adopts ``label`` when one is in the frontier
        (boolean/uint8 ``in_frontier`` mask over all vertices).

        Returns ``(next frontier, modeled edges, gathered edges)`` —
        *modeled* counts the early-exit scan a real machine performs
        (stop at the first frontier hit), *gathered* whatever the
        substrate actually touched.
        """
        raise NotImplementedError

    def run_stats(self) -> RunStats | None:
        """Work/span statistics of the substrate, when it collects any."""
        return None


class VectorizedBackend(ExecutionBackend):
    """NumPy batch-kernel substrate: the wall-clock performance path.

    Links resolve conflicts by scatter-min (the batch analogue of "the
    CAS writing the smallest label wins"), compression walks π in
    vertex order (:func:`~repro.core.compress.compress_all`), and the
    giant-component search reads π directly.
    """

    kind = "vectorized"

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Identity (or constant-``fill``) parent array; not a timed
        phase — a single ``arange``/``full``."""
        dtype = self._label_dtype(n)
        if fill is not None:
            return np.full(n, fill, dtype=dtype)
        return np.arange(n, dtype=dtype)

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int:
        """Batch link; returns the number of link rounds executed."""
        with self.tracer.span(phase):
            return link_batch(pi, src, dst)

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int:
        """Gather slot ``r`` of every vertex, then link it as one
        out-edge per vertex (:func:`~repro.core.link.link_out`); on an
        all-zero π, 0 with no gather."""
        with self.tracer.span(phase):
            if is_one_flat_tree(pi):
                return 0
            return link_out(pi, self._round_neighbors(graph, r))

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int]:
        """Gather the non-skipped remaining slots and batch-link them.

        The giant component's slots are never materialised: the skipped
        count is every remaining slot minus the slots linked.
        """
        with self.tracer.span(f"{phase}-gather"):
            src, dst = remaining_edges(graph, _kept(pi, largest), start)
        with self.tracer.span(phase):
            rounds = link_batch(pi, src, dst)
        linked = int(src.shape[0])
        skipped = self._remaining_slots(graph, start) - linked
        return linked, skipped, rounds

    def compress(self, pi: np.ndarray, *, phase: str) -> int:
        """In-order blocked compression
        (:func:`~repro.core.compress.compress_all`) through the pooled
        block-sized gather buffer; returns its sweep count."""
        with self.tracer.span(phase):
            n = int(pi.shape[0])
            scratch = self.pool.get("jump", min(n, COMPRESS_BLOCK), pi.dtype)
            return compress_all(pi, scratch)

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Mode of ``sample_size`` direct probes of π."""
        with self.tracer.span(phase):
            return approximate_largest_label(pi, sample_size, rng=rng)

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """One vectorized hook pass; True if any parent changed.

        Conflicting hooks onto the same root resolve by scatter-min — the
        batch analogue of "one competing edge's write wins per iteration"
        (Fig. 1 commentary), biased to the smallest label exactly like the
        CAS variant.
        """
        pool = self.pool
        with self.tracer.span(phase):
            m = int(src.shape[0])
            cu = pool.take(pi, src, "hook-cu")
            cv = pool.take(pi, dst, "hook-cv")
            pcv = pool.take(pi, cv, "hook-pcv")
            mask = pool.get("hook-mask", m, np.bool_)
            np.less(cu, cv, out=mask)
            root = pool.get("hook-root", m, np.bool_)
            np.equal(pcv, cv, out=root)
            mask &= root
            if not mask.any():
                return False
            if self.tracer.metrics.enabled:
                # Label distance each winning hook covers: the Table II
                # convergence signal (large early, shrinking per pass).
                self.tracer.metrics.histogram(
                    "hook_distance", POW2_BUCKETS
                ).observe_many(cv[mask] - cu[mask])
            np.minimum.at(pi, cv[mask], cu[mask])
            return True

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """One scatter-min sweep over the flat edge arrays.

        The masked form writes only winning candidates; since labels only
        decrease within a pass, a candidate that did not beat the
        pre-pass destination can never win inside the same ``at`` call,
        so the final π is identical to the unmasked sweep.  All edge-sized
        gathers land in the buffer pool, so repeated sweeps allocate no
        new result arrays; each raise-mode gather still allocates NumPy's
        hidden edge-sized temporary (:meth:`BufferPool.take`).
        """
        src, dst = self._edges(graph)
        pool = self.pool
        with self.tracer.span(phase):
            m = int(src.shape[0])
            cand = pool.take(pi, src, "prop-cand")
            down = pool.take(pi, dst, "prop-down")
            won = pool.get("prop-won", m, np.bool_)
            np.less(cand, down, out=won)
            changed = int(np.count_nonzero(won))
            if changed:
                np.minimum.at(pi, dst[won], cand[won])
            return changed

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Gather the frontier's neighbour slots and scatter-min onto them."""
        with self.tracer.span(phase):
            _, dst, cand = frontier_edges(pi, graph, frontier)
            won = cand < pi[dst]
            if not won.any():
                return np.empty(0, dtype=VERTEX_DTYPE)
            np.minimum.at(pi, dst[won], cand[won])
            return sorted_unique(dst[won]).astype(VERTEX_DTYPE, copy=False)

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Segmented first-hit pull over all unvisited vertices."""
        with self.tracer.span(phase):
            return _part.bottom_up_block(
                pi,
                graph.indptr,
                graph.indices,
                in_frontier,
                0,
                int(pi.shape[0]),
                label,
                sentinel,
            )


class SimulatedBackend(ExecutionBackend):
    """Simulated-machine substrate: concurrent semantics, instrumented.

    Every primitive is a ``parallel_for`` of generator kernels on the
    wrapped :class:`~repro.parallel.machine.SimulatedMachine`; shared
    accesses are preemption points, CAS conflicts are real, and the
    machine accumulates per-phase work/span statistics (``machine.stats``)
    plus an optional memory trace.
    """

    kind = "simulated"

    def __init__(
        self, machine: SimulatedMachine, *, label_dtype: str = "auto"
    ) -> None:
        super().__init__(label_dtype=label_dtype)
        self.machine = machine

    @property
    def workers(self) -> int:
        """The simulated machine's worker count."""
        return self.machine.num_workers

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        """Init phase ``I``: every vertex writes its own π slot (or the
        constant ``fill`` sentinel)."""
        pi = np.empty(n, dtype=self._label_dtype(n))
        with self.tracer.span(phase):
            if fill is not None:
                self.machine.parallel_for(
                    n, _fill_kernel, pi, int(fill), phase=phase
                )
            else:
                self.machine.parallel_for(n, _init_kernel, pi, phase=phase)
        return pi

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> None:
        """Concurrent link of the batch, one kernel per edge."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]), link_kernel, pi, src, dst, phase=phase
            )
        return None

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> None:
        """Concurrent neighbour round, one kernel per vertex."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0],
                _neighbor_link_kernel,
                pi,
                graph.indptr,
                graph.indices,
                r,
                phase=phase,
            )
        return None

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, None]:
        """Concurrent final phase with the per-vertex skip check."""
        counters = {"skipped": 0, "final": 0}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0],
                _final_link_kernel,
                pi,
                graph.indptr,
                graph.indices,
                start,
                largest,
                counters,
                phase=phase,
            )
        return counters["final"], counters["skipped"], None

    def compress(self, pi: np.ndarray, *, phase: str) -> None:
        """Concurrent per-vertex compression to the root."""
        with self.tracer.span(phase):
            self.machine.parallel_for(
                pi.shape[0], compress_kernel, pi, phase=phase
            )
        return None

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        """Probe phase ``F``: concurrent reads of π at random positions."""
        n = pi.shape[0]
        probes = rng.integers(0, n, size=min(sample_size, max(n, 1)))
        out = np.empty(probes.shape[0], dtype=VERTEX_DTYPE)
        with self.tracer.span(phase):
            self.machine.parallel_for(
                probes.shape[0], _probe_kernel, pi, probes, out, phase=phase
            )
        uniq, counts = np.unique(out, return_counts=True)
        return int(uniq[np.argmax(counts)])

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        """Concurrent CAS hook pass over every directed edge."""
        changed = {"flag": False}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]), _hook_kernel, pi, src, dst, changed,
                phase=phase,
            )
        return changed["flag"]

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        """Concurrent min-label sweep, one CAS-min kernel per edge.

        The CAS retry loop makes each edge's min-write atomic, so no
        update is ever lost — the sweep converges in the same number of
        certifying passes as the synchronous substrates.
        """
        src, dst = self._edges(graph)
        changed = {"count": 0}
        with self.tracer.span(phase):
            self.machine.parallel_for(
                int(src.shape[0]),
                _min_label_kernel,
                pi,
                src,
                dst,
                changed,
                phase=phase,
            )
        return changed["count"]

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        """Concurrent push, one kernel per frontier vertex."""
        changed: set = set()
        with self.tracer.span(phase):
            if frontier.shape[0]:
                self.machine.parallel_for(
                    frontier,
                    _frontier_push_kernel,
                    pi,
                    graph.indptr,
                    graph.indices,
                    changed,
                    phase=phase,
                )
        out = np.fromiter(sorted(changed), dtype=VERTEX_DTYPE, count=len(changed))
        return out

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        """Concurrent pull, one early-exit scan kernel per unvisited
        vertex.  The kernel's early exit is real, so modeled == gathered
        on this substrate."""
        unvisited = np.nonzero(pi == sentinel)[0].astype(VERTEX_DTYPE)
        counters = {"edges": 0}
        found: list = []
        with self.tracer.span(phase):
            if unvisited.shape[0]:
                self.machine.parallel_for(
                    unvisited,
                    _bottom_up_kernel,
                    pi,
                    graph.indptr,
                    graph.indices,
                    in_frontier,
                    int(label),
                    counters,
                    found,
                    phase=phase,
                )
        next_frontier = np.asarray(sorted(found), dtype=VERTEX_DTYPE)
        return next_frontier, counters["edges"], counters["edges"]

    def run_stats(self) -> RunStats:
        """The machine's accumulated work/span statistics."""
        return self.machine.stats


class DistributedBackend(VectorizedBackend):
    """BSP delta-exchange substrate: ``ranks`` simulated machines, each
    holding a shard of the edges and a full replica of π.

    Each primitive is executed as one or more supersteps.  Within a
    superstep every rank gathers candidate hooks *against the replicated
    pre-superstep snapshot* of π and keeps only candidates that improve on
    it; the candidates then cross the communicator in two phases — an
    ``alltoallv`` routing each delta to the owner rank of its vertex, and
    an owner broadcast of the merged changes (sparse index+value pairs, or
    the whole owned block once the change density passes 1/2) — before
    every replica applies the same scatter-min.  Because the vectorized
    kernels also gather all candidates before any write, the merged π is
    bit-identical to the single-machine result, round for round.

    Vertex ownership is an even 1-D block map (``block_bounds``).  Each
    rank holds one contiguous, edge-balanced CSR block of the graph's
    edges (``partition_csr_blocks``), and ad-hoc edge batches are cut at
    even ``block_bounds`` points.  Pure replica-local work (compression,
    the giant-component probe) is inherited from the vectorized substrate
    and costs no traffic; all bytes that do cross ranks flow
    through ``self.comm`` and surface as ``comm_*`` counters.
    """

    kind = "distributed"

    def __init__(
        self,
        ranks: int = 4,
        *,
        comm: SimulatedComm | None = None,
        label_dtype: str = "auto",
    ) -> None:
        super().__init__(label_dtype=label_dtype)
        if ranks < 1:
            raise ConfigurationError(f"ranks must be >= 1, got {ranks}")
        if comm is not None and comm.num_ranks != ranks:
            raise ConfigurationError(
                f"communicator has {comm.num_ranks} ranks, expected {ranks}"
            )
        self.ranks = ranks
        self.comm = comm if comm is not None else SimulatedComm(ranks)
        # The slots the driver has written since the last barrier
        # (``seed``), each with its value at that barrier; the next
        # primitive charges the ones that moved as a root broadcast.
        self._seeds: dict[int, int] = {}
        # Vertex-ownership cut points, cached per n.
        self._bounds_n = -1
        self._bounds: np.ndarray | None = None
        # Per-graph edge shards and the first CSR offset of each
        # (identity-cached like ``_edges``).
        self._shard_graph: CSRGraph | None = None
        self._shards: list[tuple[np.ndarray, np.ndarray]] | None = None
        self._shard_starts: np.ndarray | None = None
        # Watermarks for flushing CommStats into the run's counters (the
        # comm object outlives runs, and may have carried traffic before
        # this backend was built; counters must see this backend's
        # per-run deltas).
        stats = self.comm.stats
        self._seen_bytes = stats.bytes_sent
        self._seen_msgs = stats.messages
        self._seen_steps = stats.supersteps
        self._seen_pair: dict[tuple[int, int], int] = dict(stats.by_pair)

    # -- sharding -------------------------------------------------------- #

    def _vertex_bounds(self, n: int) -> np.ndarray:
        if self._bounds_n != n:
            self._bounds_n = n
            self._bounds = _part.block_bounds(n, self.ranks)
        assert self._bounds is not None
        return self._bounds

    def _graph_shards(self, graph: CSRGraph) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-rank ``(src, dst)`` directed-edge shards of ``graph``: rank
        ``r`` holds CSR block ``r`` of :func:`partition_csr_blocks`."""
        if self._shard_graph is not graph:
            src, dst = self._edges(graph)
            blocks = _part.partition_csr_blocks(graph.indptr, self.ranks)
            self._shard_graph = graph
            self._shards = [
                (src[blk.e_lo : blk.e_hi], dst[blk.e_lo : blk.e_hi])
                for blk in blocks
            ]
            self._shard_starts = np.array([blk.e_lo for blk in blocks])
        assert self._shards is not None
        return self._shards

    def _edge_owner(self, graph: CSRGraph, offsets: np.ndarray) -> np.ndarray:
        """Owner rank of each CSR edge offset: the last block that starts
        at or before it.  An empty block starts where the next one does,
        so it never owns an offset."""
        self._graph_shards(graph)
        assert self._shard_starts is not None
        return np.searchsorted(self._shard_starts, offsets, side="right") - 1

    def shard_sizes(self, graph: CSRGraph) -> list[int]:
        """Directed-edge count held by each rank for ``graph``."""
        return [int(s.shape[0]) for s, _ in self._graph_shards(graph)]

    def _batch_shards(
        self, src: np.ndarray, dst: np.ndarray
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Shard an ad-hoc edge batch (sampling rounds, SV hooks) into
        even contiguous runs of flat positions, one per rank."""
        cuts = _part.block_bounds(int(src.shape[0]), self.ranks).tolist()
        return [(src[lo:hi], dst[lo:hi]) for lo, hi in zip(cuts[:-1], cuts[1:])]

    # -- replica consistency / traffic accounting ------------------------ #

    def _flush_comm(self) -> None:
        """Move new CommStats traffic into the run's counters."""
        stats = self.comm.stats
        metrics = self.tracer.metrics
        if stats.bytes_sent != self._seen_bytes:
            metrics.counter("comm_bytes_sent").inc(
                stats.bytes_sent - self._seen_bytes
            )
            self._seen_bytes = stats.bytes_sent
        if stats.messages != self._seen_msgs:
            metrics.counter("comm_messages").inc(stats.messages - self._seen_msgs)
            self._seen_msgs = stats.messages
        new_steps = stats.supersteps - self._seen_steps
        if new_steps:
            metrics.counter("comm_supersteps").inc(new_steps)
            if metrics.enabled:
                hist = metrics.histogram("comm_step_bytes", POW2_BUCKETS)
                for nbytes in stats.step_bytes[self._seen_steps :]:
                    hist.observe(nbytes)
            self._seen_steps = stats.supersteps
        for pair, nbytes in stats.by_pair.items():
            seen = self._seen_pair.get(pair, 0)
            if nbytes != seen:
                metrics.counter(f"comm_pair_{pair[0]}_{pair[1]}").inc(
                    nbytes - seen
                )
                self._seen_pair[pair] = nbytes

    def seed(self, pi: np.ndarray, v: int, label: int) -> None:
        """Write ``pi[v] = label`` on the driver's replica and record
        ``v``, with its value at the last barrier, for the next primitive
        to broadcast."""
        self._seeds.setdefault(int(v), int(pi[v]))
        pi[v] = label

    def _sync_driver(self, pi: np.ndarray) -> None:
        """Fold driver-side writes into every replica.

        Pipelines own π between primitives and write it only through
        :meth:`seed`.  The slots seeded since the last barrier whose value
        moved go out as one broadcast before the primitive's supersteps
        run; batching them keeps a run of seeded isolated vertices to one
        superstep.
        """
        seeds, self._seeds = self._seeds, {}
        if self.ranks == 1 or not seeds:
            return
        moved = sum(int(pi[v]) != was for v, was in seeds.items())
        if moved:
            n = int(pi.shape[0])
            self.comm.bcast_all({0: self._enc_cost(moved, n, pi.dtype.itemsize)})
            self._flush_comm()

    @staticmethod
    def _enc_cost(k: int, span: int, item: int) -> int:
        """Wire bytes of ``k`` changed slots in a ``span``-slot window at
        ``item`` bytes a label, under the cheapest of three encodings:
        sparse ``(index, value)`` pairs, a changed-slot bitmap plus the
        values, or the raw dense window."""
        return min(2 * k * item, (span + 7) // 8 + k * item, span * item)

    def _ship_deltas(
        self,
        pi: np.ndarray,
        live: list[tuple[int, np.ndarray, np.ndarray]],
        changed: np.ndarray,
        *,
        already_applied: bool,
    ) -> None:
        """Put one exchange's deltas on the wire, cheapest strategy first.

        Two strategies are costed against each other per exchange (the
        candidate counts ride the preceding barrier as scalar metadata, so
        every rank prices both):

        - **all-gather** — every rank broadcasts its own candidate deltas;
          peers merge locally.  One superstep; total bytes grow with the
          raw candidate volume times ``R - 1``.
        - **owner-routed** — an ``alltoallv`` ships candidates to the owner
          rank of each vertex, owners merge and publish only the *final*
          changed slots.  Two supersteps, but cross-rank duplicate targets
          collapse before the broadcast fan-out.

        Sparse sweeps favour all-gather; contended early rounds with heavy
        cross-rank duplication favour owner routing.  Each message is
        recorded at :meth:`_enc_cost`'s size.  Every index array arrives
        sorted, so its share of an owner block is one ``searchsorted``
        count.
        """
        n = int(pi.shape[0])
        item = pi.dtype.itemsize
        bounds = self._vertex_bounds(n)
        span = np.diff(bounds).tolist()

        def by_owner(idx: np.ndarray) -> list[tuple[int, int]]:
            counts = np.diff(np.searchsorted(idx, bounds)).tolist()
            return [(d, k) for d, k in enumerate(counts) if k]

        routed: dict[tuple[int, int], int] = {}
        if not already_applied:
            for r, idx, _ in live:
                for dest, k in by_owner(idx):
                    if dest != r:
                        routed[(r, dest)] = self._enc_cost(k, span[dest], item)
        published = {
            root: self._enc_cost(k, span[root], item) for root, k in by_owner(changed)
        }
        gathered = {r: self._enc_cost(idx.shape[0], n, item) for r, idx, _ in live}
        peers = self.ranks - 1
        owner_cost = sum(routed.values()) + peers * sum(published.values())
        if peers * sum(gathered.values()) <= owner_cost:
            self.comm.bcast_all(gathered)
            return
        if routed:
            self.comm.alltoallv(routed)
        self.comm.bcast_all(published)

    def _dedup_min(
        self, idx: np.ndarray, val: np.ndarray, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One rank's candidates as sorted distinct indices with the minimum
        value of each — what the rank puts on the wire.

        Scatter-mins into the pooled length-``n`` ``dedup`` buffer filled
        with the dtype maximum, which no delta carries (every delta strictly
        lowers a slot of π), and reads the distinct indices back in order
        with one scan: O(k + n), no sort.
        """
        top = np.iinfo(val.dtype).max
        buf = self.pool.get("dedup", n, val.dtype)
        buf.fill(top)
        np.minimum.at(buf, idx, val)
        uniq = np.flatnonzero(buf != top)
        return uniq, buf[uniq]

    def _exchange(
        self,
        pi: np.ndarray,
        deltas: list[tuple[np.ndarray, np.ndarray]],
        *,
        already_applied: bool = False,
    ) -> np.ndarray:
        """One delta exchange: merge per-rank ``(index, value)`` candidate
        minima into every replica of π; returns the sorted changed slot
        indices.

        Candidates are deduplicated per rank (minimum per index) and merged
        by scatter-min — order-independent, so every replica lands on the
        same values the single-machine kernel produces.  The changed slots
        are the union of the live ranks' indices (:meth:`_changed`).  The
        wire protocol is delegated to :meth:`_ship_deltas`; an exchange
        with no candidates anywhere is skipped entirely, so a converged
        sweep costs zero bytes and zero barriers.

        ``already_applied`` marks deltas whose writes already landed in π
        by rank-disjoint local kernels (the bottom-up pull): owner routing
        is free because every entry is produced on its owner rank (so the
        rank-ordered indices are already sorted).
        """
        live = [
            (r, idx, val)
            for r, (idx, val) in enumerate(deltas)
            if idx.shape[0]
        ]
        if not live:
            return np.empty(0, dtype=np.int64)
        if already_applied:
            changed = np.concatenate([idx for _, idx, _ in live])
        else:
            with self.tracer.span("X-merge"):
                n = int(pi.shape[0])
                live = [
                    (r, *self._dedup_min(idx, val, n)) for r, idx, val in live
                ]
                for _, idx, val in live:
                    np.minimum.at(pi, idx, val)
                changed = self._changed(live, n)
        return self._publish(pi, live, changed, already_applied=already_applied)

    def _changed(
        self, live: list[tuple[int, np.ndarray, np.ndarray]], n: int
    ) -> np.ndarray:
        """The sorted slots a merge changed.

        Every merged candidate strictly lowers its slot of the
        pre-exchange π, so the changed slots are the union of the live
        ranks' sorted distinct indices: one live rank's array as it is,
        otherwise one scan of the pooled n-byte ``changed`` mask.
        """
        if len(live) == 1:
            return live[0][1]
        mask = self.pool.get("changed", n, np.bool_)
        mask.fill(False)
        for _, idx, _ in live:
            mask[idx] = True
        return np.flatnonzero(mask)

    def _publish(
        self,
        pi: np.ndarray,
        live: list[tuple[int, np.ndarray, np.ndarray]],
        changed: np.ndarray,
        *,
        already_applied: bool = False,
    ) -> np.ndarray:
        """Ship one merged exchange — each live rank's sorted distinct
        candidates and the ``changed`` slots π already holds; returns
        ``changed``."""
        if self.ranks > 1:
            with self.tracer.span("X"):
                self._ship_deltas(
                    pi, live, changed, already_applied=already_applied
                )
            self._flush_comm()
        return changed

    # -- link primitives ------------------------------------------------- #

    def _dist_link_batch(
        self,
        pi: np.ndarray,
        shards: list[tuple[np.ndarray, np.ndarray]],
    ) -> int:
        """The ``link_batch`` loop over per-rank edge shards (see
        :meth:`_dist_link_rounds`)."""
        if sum(int(s.shape[0]) for s, _ in shards) == 0:
            return 0
        return self._dist_link_rounds(
            pi, [(pi[src], pi[dst]) for src, dst in shards], 0
        )

    def _dist_link_rounds(
        self,
        pi: np.ndarray,
        cursors: list[tuple[np.ndarray, np.ndarray]],
        rounds: int,
    ) -> int:
        """:func:`~repro.core.link.link_batch`'s round loop as one
        delta-exchange superstep per round, from each rank's ``(a, b)``
        cursors after ``rounds`` rounds already run; returns the total
        round count.

        Every rank climbs its own cursors on the replica and ships only
        winning root hooks.  Round-for-round identical to ``link_batch``
        because hooks are gathered against the pre-round snapshot and
        merged by scatter-min.  Cursors are read only before the round's
        exchange, so they may be views of π.  A rank compacts its live
        edges with ``flatnonzero`` unless every edge is still apart.
        """
        cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
        while True:
            actives = [a != b for a, b in cursors]
            lives = [int(np.count_nonzero(act)) for act in actives]
            any_active = self.comm.allreduce_any([k > 0 for k in lives])
            self._flush_comm()
            if not any_active:
                return rounds
            rounds += 1
            if rounds > cap:
                raise ConvergenceError(
                    f"link_batch exceeded {cap} rounds — cycle in pi?"
                )
            deltas = []
            climbs = []
            for (a, b), act, live in zip(cursors, actives, lives):
                if live < a.shape[0]:
                    keep = np.flatnonzero(act)
                    a = a[keep]
                    b = b[keep]
                high = np.maximum(a, b)
                low = np.minimum(a, b)
                hook = np.flatnonzero(pi[high] == high)
                deltas.append((high[hook], low[hook]))
                climbs.append((high, low))
            self._exchange(pi, deltas)
            cursors = [(pi[pi[high]], pi[low]) for high, low in climbs]

    def _round_ranks(self, short: np.ndarray, n: int) -> list[slice] | None:
        """Each rank's window of vertices in a neighbour round whose
        degree <= r vertices are ``short``, holding the ones
        :meth:`_batch_shards` gives it of the other vertices, or None
        when no vertex has slot ``r``.

        The cut points are the even ``block_bounds`` positions among the
        vertices of degree > r, mapped to vertex ids by counting the
        degree ≤ r vertices before each: ``short[i]`` precedes the p-th
        one exactly when ``short[i] - i <= p``.  A window may hold degree
        ≤ r vertices too; their slot is themselves, no edge.
        """
        m = n - int(short.shape[0])
        if m == 0:
            return None
        pos = _part.block_bounds(m, self.ranks)
        shift = short - np.arange(short.shape[0])
        cuts = pos + np.searchsorted(shift, pos, side="right")
        cuts[0] = 0
        return [slice(lo, hi) for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist())]

    def _identity_round(
        self,
        pi: np.ndarray,
        nbr: np.ndarray,
        ranks: list[slice],
    ) -> int:
        """A neighbour round on an identity π: round 1 the way
        :func:`~repro.core.link.link_out` runs it, rank by rank, then
        the round loop over ``link_out``'s round-2 edges.

        Every endpoint is a root, so a rank's candidates are its down
        slots ``(v, nbr[v])``, ``nbr[v] < v``, already sorted and
        distinct, plus its up slots ``(nbr[u], u)``, deduplicated and
        merged in (:func:`merge_min`).  That is the set the rank would
        ship from its whole edge batch, so the messages are unchanged.
        The merge is ``π ← minimum(π, nbr)`` plus one scatter-min of the
        up slots.  Round 2 carries on, each on the rank that owns it,
        every up edge and each down edge ``(t, nbr[t])`` whose ``π[t]``
        an up edge lowered below ``nbr[t]``; every other edge has both
        cursors at ``π[nbr[t]]``.
        """
        n = int(pi.shape[0])
        flags = []
        live = []
        ups = []
        for k, v in enumerate(ranks):
            nb = nbr[v]
            own = pi[v]  # π is the identity: the window's own ids
            down = np.flatnonzero(nb < own)
            up = np.flatnonzero(nb > own)
            d_val = nb[down].astype(pi.dtype, copy=False)
            u_tgt = nb[up]
            down += v.start  # positions count from the window start
            up += v.start
            ups.append((up, u_tgt))
            flags.append(bool(down.shape[0] or up.shape[0]))
            if up.shape[0]:
                hooks = self._dedup_min(u_tgt, up.astype(pi.dtype), n)
                live.append((k, *merge_min(down, d_val, *hooks)))
            elif down.shape[0]:
                live.append((k, down, d_val))
        any_edge = self.comm.allreduce_any(flags)
        self._flush_comm()
        if not any_edge:
            return 0
        src = np.concatenate([u for u, _ in ups])
        dst = np.concatenate([t for _, t in ups])
        with self.tracer.span("X-merge"):
            np.minimum(pi, nbr, out=pi)
            np.minimum.at(pi, dst, src)
            changed = self._changed(live, n)
        self._publish(pi, live, changed)
        # t's own edge is lowered iff its hook's winner u lies below
        # nbr[t] < t (as in link_out); a fan-in of up edges yields t once.
        tnbr = nbr[dst]
        low = dst[(pi[dst] == src) & (src < tnbr) & (tnbr < dst)]
        cursors = []
        for v, (up, tgt) in zip(ranks, ups):
            mine = low[(low >= v.start) & (low < v.stop)]
            high = np.concatenate((tgt, mine))
            cursors.append((pi[pi[high]], pi[np.concatenate((up, nbr[mine]))]))
        return self._dist_link_rounds(pi, cursors, 1)

    def link_edges(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> int:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            return self._dist_link_batch(pi, self._batch_shards(src, dst))

    def link_neighbor_round(
        self, pi: np.ndarray, graph: CSRGraph, r: int, *, phase: str
    ) -> int:
        """Gather slot ``r`` of every vertex (:func:`round_neighbors`) and
        link it rank by rank, each rank over its :meth:`_round_ranks`
        vertices: on an identity π as :meth:`_identity_round`, otherwise
        through the round loop from every rank's cursors.

        On an all-zero π every rank reads off its own replica that
        nothing is apart, so the round returns 0 with no gather and no
        barrier."""
        self._sync_driver(pi)
        with self.tracer.span(phase):
            if is_one_flat_tree(pi):
                return 0
            nbr = self._round_neighbors(graph, r)
            ranks = self._round_ranks(
                self.short_vertices(graph, r), int(pi.shape[0])
            )
            if ranks is None:
                return 0
            if is_identity(pi):
                return self._identity_round(pi, nbr, ranks)
            return self._dist_link_rounds(pi, [(pi[v], pi[nbr[v]]) for v in ranks], 0)

    def link_remaining(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        start: int,
        largest: int | None,
        *,
        phase: str,
    ) -> tuple[int, int, int]:
        self._sync_driver(pi)
        with self.tracer.span(f"{phase}-gather"):
            src, dst = remaining_edges(graph, _kept(pi, largest), start)
        with self.tracer.span(phase):
            rounds = self._dist_link_batch(
                pi, self._batch_shards(src, dst)
            )
        linked = int(src.shape[0])
        skipped = self._remaining_slots(graph, start) - linked
        return linked, skipped, rounds

    # -- replica-local primitives ---------------------------------------- #

    def init_labels(
        self, n: int, *, phase: str = "I", fill: int | None = None
    ) -> np.ndarray:
        # The identity (or constant) seed is generated locally on every
        # rank — no traffic.  ``replica_bytes`` is the O(n·R) memory of
        # the R replicas of π.
        pi = super().init_labels(n, phase=phase, fill=fill)
        self.tracer.metrics.counter("replica_bytes").inc(
            self.ranks * pi.nbytes
        )
        self._seeds = {}
        self._vertex_bounds(n)
        return pi

    def compress(self, pi: np.ndarray, *, phase: str) -> int:
        # Compression reads/writes only the local replica: since every
        # rank holds the same π, all replicas converge identically for free.
        self._sync_driver(pi)
        return super().compress(pi, phase=phase)

    def find_largest(
        self,
        pi: np.ndarray,
        sample_size: int,
        rng: np.random.Generator,
        *,
        phase: str,
    ) -> int:
        # Every rank holds the replica and the run's seeded RNG stream, so
        # the probe is rank-local and consumes identical RNG state.
        self._sync_driver(pi)
        return super().find_largest(pi, sample_size, rng, phase=phase)

    # -- sweep primitives ------------------------------------------------- #

    def hook_pass(
        self, pi: np.ndarray, src: np.ndarray, dst: np.ndarray, *, phase: str
    ) -> bool:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            deltas = []
            hooked = False
            for src_r, dst_r in self._batch_shards(src, dst):
                cu = pi[src_r]
                cv = pi[dst_r]
                mask = (cu < cv) & (pi[cv] == cv)
                if mask.any():
                    hooked = True
                    if self.tracer.metrics.enabled:
                        self.tracer.metrics.histogram(
                            "hook_distance", POW2_BUCKETS
                        ).observe_many(cv[mask] - cu[mask])
                deltas.append((cv[mask], cu[mask]))
            if not hooked:
                return False
            self._exchange(pi, deltas)
            return True

    def _sweep_exchange(
        self, pi: np.ndarray, shards: list[tuple[np.ndarray, np.ndarray]]
    ) -> int:
        """One distributed min-label sweep: per-shard winning candidates
        against the snapshot, then a delta exchange; returns the win count
        (equal to the vectorized masked sweep's, shard-partitioned)."""
        deltas = []
        total = 0
        for src_r, dst_r in shards:
            cand = pi[src_r]
            won = cand < pi[dst_r]
            total += int(np.count_nonzero(won))
            deltas.append((dst_r[won], cand[won]))
        if total:
            self._exchange(pi, deltas)
        return total

    def propagate_pass(
        self, pi: np.ndarray, graph: CSRGraph, *, phase: str
    ) -> int:
        self._sync_driver(pi)
        shards = self._graph_shards(graph)
        with self.tracer.span(phase):
            return self._sweep_exchange(pi, shards)

    # -- frontier primitives ---------------------------------------------- #

    def frontier_expand(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        frontier: np.ndarray,
        *,
        phase: str,
    ) -> np.ndarray:
        # Frontier membership is derived from replicated label state, so
        # the frontier itself never crosses the wire — only label deltas.
        self._sync_driver(pi)
        with self.tracer.span(phase):
            offsets, dst, cand = frontier_edges(pi, graph, frontier)
            owner = self._edge_owner(graph, offsets)
            deltas = []
            for r in range(self.ranks):
                sel = owner == r
                dst_r = dst[sel]
                cand_r = cand[sel]
                won = cand_r < pi[dst_r]
                deltas.append((dst_r[won], cand_r[won]))
            # The slots the exchange lowered are exactly the winning
            # destinations, already sorted and distinct.
            return self._exchange(pi, deltas).astype(VERTEX_DTYPE, copy=False)

    def bottom_up_pass(
        self,
        pi: np.ndarray,
        graph: CSRGraph,
        in_frontier: np.ndarray,
        label: int,
        sentinel: int,
        *,
        phase: str,
    ) -> tuple[np.ndarray, int, int]:
        self._sync_driver(pi)
        with self.tracer.span(phase):
            bounds = self._vertex_bounds(int(pi.shape[0]))
            founds = []
            deltas = []
            modeled = 0
            gathered = 0
            # The pull partitions by vertex-ownership block: each vertex
            # writes only its own slot, so rank-local execution is exact
            # and the found deltas are born on their owner ranks.
            for r in range(self.ranks):
                found, mod, gat = _part.bottom_up_block(
                    pi,
                    graph.indptr,
                    graph.indices,
                    in_frontier,
                    int(bounds[r]),
                    int(bounds[r + 1]),
                    label,
                    sentinel,
                )
                founds.append(found)
                modeled += mod
                gathered += gat
                deltas.append(
                    (
                        found.astype(np.int64),
                        np.full(found.shape[0], label, dtype=pi.dtype),
                    )
                )
            self._exchange(pi, deltas, already_applied=True)
            if len(founds) == 1:
                nxt = founds[0]
            else:
                nxt = np.concatenate(founds).astype(VERTEX_DTYPE)
            return nxt, modeled, gathered


# --------------------------------------------------------------------- #
# backend factory
# --------------------------------------------------------------------- #

#: canonical backend kinds, as accepted by :func:`make_backend` and the
#: CLI's ``--backend`` flag.
BACKEND_KINDS = ("vectorized", "simulated", "distributed")


def backend_kinds() -> tuple[str, ...]:
    """The backend kinds :func:`make_backend` can construct."""
    return BACKEND_KINDS


def make_backend(
    kind: str,
    *,
    workers: int | None = None,
    ranks: int | None = None,
    label_dtype: str = "auto",
) -> ExecutionBackend:
    """Construct a backend of ``kind`` (one of :data:`BACKEND_KINDS`).

    ``workers`` selects the simulated machine's worker count and
    ``ranks`` the world size of the distributed substrate, each 4 when
    ``None``; the vectorized backend ignores both.
    ``label_dtype`` selects the parent-array width policy (see
    :func:`resolve_label_dtype`).
    """
    if kind == "vectorized":
        return VectorizedBackend(label_dtype=label_dtype)
    if kind == "simulated":
        return SimulatedBackend(
            SimulatedMachine(4 if workers is None else workers),
            label_dtype=label_dtype,
        )
    if kind == "distributed":
        return DistributedBackend(
            ranks=4 if ranks is None else ranks, label_dtype=label_dtype
        )
    raise ConfigurationError(
        f"unknown backend kind {kind!r}; available: {list(BACKEND_KINDS)}"
    )
