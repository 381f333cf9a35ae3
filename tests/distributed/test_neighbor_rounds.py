"""The distributed neighbour round against the batch path it replaced.

``DistributedBackend.link_neighbor_round`` gathers slot r of every vertex
and gives each rank a window of vertices (``block``) or its hashed ones
(``hash``).  The reference below keeps the earlier path as test code:
the ``(v, N(v)[r])`` batch of every vertex with degree > r, sharded by
``_batch_shards`` and linked by the plain boolean-mask superstep loop.
Both must leave the same π, count the same rounds, and put the same
payloads on the wire.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import ITERATION_CAP_FACTOR, ITERATION_CAP_SLACK
from repro.core.compress import compress_all
from repro.core.link import link_batch
from repro.distributed import SimulatedComm
from repro.engine import DistributedBackend
from repro.engine import partition as _part
from repro.errors import ConvergenceError
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList


class RecordingComm(SimulatedComm):
    """Keeps every payload, but not the flag reductions' scalar tokens,
    whose bytes are uninitialised."""

    def __init__(self, num_ranks):
        super().__init__(num_ranks)
        self.payloads = []
        self._reducing = False

    def allreduce_any(self, flags):
        self._reducing = True
        try:
            return super().allreduce_any(flags)
        finally:
            self._reducing = False

    def send(self, src, dst, array):
        if not self._reducing:
            self.payloads.append((src, dst, array.tobytes()))
        super().send(src, dst, array)


def reference_link_round(backend, pi, graph, r):
    """The neighbour round as a vertex-list batch: ``(v, N(v)[r])`` for
    every vertex of degree > r, sharded by flat position, each round a
    boolean-mask pass over every rank's whole shard.  An all-zero π is
    one tree, so every replica knows without a barrier that nothing is
    apart."""
    backend._sync_driver(pi)
    if not pi.any():
        return 0
    verts = np.flatnonzero(backend.degrees(graph) > r)
    src, dst = verts, graph.indices[graph.indptr[verts] + r]
    shards = backend._batch_shards(src, dst)
    if src.shape[0] == 0:
        return 0
    state = [(pi[s], pi[d]) for s, d in shards]
    cap = ITERATION_CAP_FACTOR * pi.shape[0] + ITERATION_CAP_SLACK
    rounds = 0
    while True:
        actives = [a != b for a, b in state]
        any_active = backend.comm.allreduce_any([bool(x.any()) for x in actives])
        backend._flush_comm()
        if not any_active:
            return rounds
        rounds += 1
        if rounds > cap:
            raise ConvergenceError("reference loop exceeded its cap")
        deltas = []
        climbs = []
        for (a, b), active in zip(state, actives):
            a = a[active]
            b = b[active]
            high = np.maximum(a, b)
            low = np.minimum(a, b)
            root = pi[high] == high
            deltas.append((high[root], low[root]))
            climbs.append((high, low))
        backend._exchange(pi, deltas)
        state = [(pi[pi[high]], pi[low]) for high, low in climbs]


@st.composite
def round_graphs(draw):
    """Up to 80 vertices under random ids: a random core, pendant
    vertices hung off it, isolated vertices and self-loops, with
    neighbour lists sorted or in input order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 80))
    core = draw(st.integers(0, n))
    pendants = draw(st.integers(0, n - core))
    m = draw(st.integers(0, 3 * core))
    src = [rng.integers(0, max(core, 1), size=m if core else 0)]
    dst = [rng.integers(0, max(core, 1), size=m if core else 0)]
    if core:
        src.append(np.arange(core, core + pendants))
        dst.append(rng.integers(0, core, size=pendants))
    loops = rng.integers(0, max(n, 1), size=draw(st.integers(0, 5)) if n else 0)
    src.append(loops)
    dst.append(loops)
    perm = rng.permutation(n)
    edges = EdgeList(n, perm[np.concatenate(src)], perm[np.concatenate(dst)])
    return build_csr(
        edges, drop_self_loops=False, sort_neighbors=draw(st.booleans())
    )


@st.composite
def parents(draw, n):
    """π on ``n`` vertices at int32 or int64: the identity, or random
    earlier batch links, sometimes compressed flat."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    pi = np.arange(n, dtype=dtype)
    shape = draw(st.sampled_from(["identity", "linked", "compressed"]))
    if n and shape != "identity":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        src, dst = rng.integers(0, n, size=(2, int(rng.integers(1, 2 * n + 1))))
        link_batch(pi, src, dst)
        if shape == "compressed":
            compress_all(pi)
    return pi


def _stats(comm):
    stats = comm.stats
    return (
        stats.bytes_sent,
        stats.messages,
        stats.supersteps,
        stats.by_pair,
        stats.step_bytes,
        comm.payloads,
    )


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    graph=round_graphs(),
    rs=st.lists(st.integers(0, 3), min_size=1, max_size=3),
    ranks=st.sampled_from([1, 2, 3, 5]),
    partition=st.sampled_from(["block", "hash"]),
)
def test_round_matches_vertex_list_reference(data, graph, rs, ranks, partition):
    pi = data.draw(parents(graph.num_vertices))
    policy = "auto" if pi.dtype == np.int32 else "wide"
    new, ref = (
        DistributedBackend(
            ranks, partition=partition, comm=RecordingComm(ranks), label_dtype=policy
        )
        for _ in range(2)
    )
    got, want = pi.copy(), pi.copy()
    for r in rs:
        rounds = new.link_neighbor_round(got, graph, r, phase="L")
        assert rounds == reference_link_round(ref, want, graph, r)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert _stats(new.comm) == _stats(ref.comm)


@settings(max_examples=200, deadline=None)
@given(
    deg=st.lists(st.integers(0, 3), max_size=60),
    r=st.integers(0, 3),
    ranks=st.integers(1, 7),
)
def test_block_windows_hold_the_batch_shards(deg, r, ranks):
    """Each ``block`` window holds exactly the degree > r vertices that
    ``block_bounds`` gives the rank, and the windows tile [0, n)."""
    deg = np.asarray(deg, dtype=np.int64)
    short = np.flatnonzero(deg <= r)
    windows = DistributedBackend(ranks)._round_ranks(short, deg.shape[0])
    verts = np.flatnonzero(deg > r)
    if verts.shape[0] == 0:
        assert windows is None
        return
    assert windows[0].start == 0
    assert windows[-1].stop == deg.shape[0]
    assert all(a.stop == b.start for a, b in zip(windows, windows[1:]))
    cuts = _part.block_bounds(verts.shape[0], ranks)
    for w, lo, hi in zip(windows, cuts[:-1], cuts[1:]):
        held = np.arange(w.start, w.stop)
        assert held[deg[held] > r].tolist() == verts[lo:hi].tolist()
