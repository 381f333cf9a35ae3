"""Afforest's two exact skips: a neighbour round on an all-zero π, and
a compress after a link that ran 0 rounds.

Spy backends record every skip and check it against the work it stands
for: a skipped round met an all-zero π (and a round that gathered did
not), and ``compress_all`` on a copy of the π a skipped compress would
have swept returns 0 and changes nothing.  Labels must equal the
union-find oracle's, on graphs with and without the property that
makes round 0 leave one tree (every vertex but 0 has a lower-numbered
first neighbour).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis.verify import canonical_labels
from repro.core.compress import compress_all
from repro.engine import DistributedBackend, VectorizedBackend, backends
from repro.generators import barabasi_albert_graph, web_graph
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.unionfind import sequential_components


class SkipSpy:
    """Mixin over a backend: checks each skip as it happens and counts
    them (``round_skips``, ``compress_skips``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pi = None
        self.round_skips = 0
        self.compress_skips = 0
        self._gathered = False
        self._compressed = set()

    def init_labels(self, n, **kwargs):
        self.pi = super().init_labels(n, **kwargs)
        return self.pi

    def _round_neighbors(self, graph, r):
        self._gathered = True
        return super()._round_neighbors(graph, r)

    def link_neighbor_round(self, pi, graph, r, *, phase):
        zero = not pi.any()
        self._gathered = False
        rounds = super().link_neighbor_round(pi, graph, r, phase=phase)
        if self._gathered:
            assert not zero
        else:
            assert zero and rounds == 0 and not pi.any()
            self.round_skips += 1
        return rounds

    def compress(self, pi, *, phase):
        self._compressed.add(phase)
        return super().compress(pi, phase=phase)

    def beat(self, phase="", **kwargs):
        # Afforest beats after each round's compress ("L<r>" -> "C<r>")
        # and after the final one ("H" -> "C*").
        compress_phase = "C*" if phase == "H" else "C" + phase[1:]
        if compress_phase not in self._compressed:
            flat = self.pi.copy()
            assert compress_all(flat) == 0, phase
            assert np.array_equal(flat, self.pi), phase
            self.compress_skips += 1
        super().beat(phase, **kwargs)


class SpyVectorized(SkipSpy, VectorizedBackend):
    pass


class SpyDistributed(SkipSpy, DistributedBackend):
    pass


@st.composite
def skip_graphs(draw):
    """A BA graph, a path numbered from one end, a star centred on 0 or
    a web proxy, which round 0 leaves one tree when their neighbour
    lists are sorted, or a random graph; each at random with its ids
    permuted, its neighbour lists in input order, isolated vertices
    appended and self-loops added."""
    kind = draw(st.sampled_from(["ba", "path", "star", "web", "random"]))
    n = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "ba":
        src, dst = barabasi_albert_graph(
            max(n, 2), draw(st.integers(1, 4)), seed=seed
        ).edge_array()
    elif kind == "web":
        src, dst = web_graph(
            max(n, 5), local_k=4, hub_edges_per_vertex=2, seed=seed
        ).edge_array()
    elif kind == "path":
        src, dst = np.arange(n - 1), np.arange(1, n)
    elif kind == "star":
        src, dst = np.zeros(n - 1, dtype=np.int64), np.arange(1, n)
    else:
        m = draw(st.integers(0, 2 * n))
        src, dst = rng.integers(0, n, size=(2, m))
    core = int(max(n, src.max(initial=-1) + 1, dst.max(initial=-1) + 1))
    if draw(st.booleans()):
        perm = rng.permutation(core)
        src, dst = perm[src], perm[dst]
    # Isolated tail vertices (each its own tree) on about half the draws.
    total = core + draw(st.one_of(st.just(0), st.integers(1, 4)))
    loops = rng.integers(0, total, size=draw(st.integers(0, 3)))
    edges = EdgeList(
        total, np.concatenate((src, loops)), np.concatenate((dst, loops))
    )
    return build_csr(
        edges, drop_self_loops=False, sort_neighbors=draw(st.booleans())
    )


BACKENDS = st.one_of(
    st.just(("vectorized", 1, "block")),
    st.tuples(
        st.just("distributed"),
        st.integers(1, 4),
        st.sampled_from(["block", "hash"]),
    ),
)


def _spy(kind, ranks, partition):
    if kind == "vectorized":
        return SpyVectorized()
    return SpyDistributed(ranks, partition=partition)


@settings(max_examples=250, deadline=None)
@given(
    graph=skip_graphs(),
    backend=BACKENDS,
    name=st.sampled_from(["afforest", "afforest-noskip"]),
    sampling=st.sampled_from(["first", "random"]),
    rounds=st.integers(0, 3),
)
def test_skips_are_exact(graph, backend, name, sampling, rounds):
    spy = _spy(*backend)
    result = engine.run(
        name,
        graph,
        backend=spy,
        profile=True,
        sampling=sampling,
        neighbor_rounds=rounds,
    )
    oracle = canonical_labels(sequential_components(graph))
    assert np.array_equal(result.labels, oracle)
    assert result.counters.get("rounds_skipped", 0) == spy.compress_skips
    assert len(result.compress_passes) == rounds + 1
    if sampling == "random":
        assert spy.round_skips == 0


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize(
    "backend",
    [
        ("vectorized", 1, "block"),
        ("distributed", 2, "block"),
        ("distributed", 3, "hash"),
    ],
    ids=["vectorized", "distributed-R2-block", "distributed-R3-hash"],
)
def test_connected_order_skips_every_later_round(backend, rounds):
    """On a BA graph in growth order round 0 leaves one tree: every later
    round and every later compress is skipped, and C0 is not."""
    graph = barabasi_albert_graph(500, edges_per_vertex=3, seed=4)
    spy = _spy(*backend)
    result = engine.run("afforest", graph, backend=spy, neighbor_rounds=rounds)
    assert not result.labels.any()
    assert spy.round_skips == rounds - 1
    assert spy.compress_skips == rounds  # C1.. and C*
    assert result.link_rounds == [1] + [0] * rounds
    assert result.compress_passes[1:] == [0] * rounds


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "make",
    [
        VectorizedBackend,
        lambda: DistributedBackend(1),
        lambda: DistributedBackend(3, partition="block"),
        lambda: DistributedBackend(4, partition="hash"),
    ],
    ids=["vectorized", "distributed-R1", "distributed-R3-block", "distributed-R4-hash"],
)
def test_round_on_all_zero_pi_is_free(monkeypatch, make, dtype, r):
    """An all-zero π links nothing: the round returns 0 before its
    gather, leaves π as it was and puts nothing on the wire."""

    def no_gather(*args, **kwargs):
        raise AssertionError("round_neighbors called on an all-zero π")

    monkeypatch.setattr(backends, "round_neighbors", no_gather)
    graph = barabasi_albert_graph(40, edges_per_vertex=2, seed=2)
    backend = make()
    pi = np.zeros(graph.num_vertices, dtype=dtype)
    comm = getattr(backend, "comm", None)

    def traffic():
        stats = comm.stats
        return (
            stats.bytes_sent,
            stats.messages,
            stats.supersteps,
            dict(stats.by_pair),
            list(stats.step_bytes),
        )

    before = None if comm is None else traffic()
    assert backend.link_neighbor_round(pi, graph, r, phase="L") == 0
    assert pi.dtype == dtype and not pi.any()
    if comm is not None:
        assert traffic() == before
