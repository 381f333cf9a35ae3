"""Tests for distributed connected components through ``engine.run``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis import equivalent_labelings, is_valid_labeling
from repro.distributed import SimulatedComm
from repro.engine import DistributedBackend
from repro.engine.bufferpool import BufferPool
from repro.engine.partition import block_bounds, partition_csr_blocks
from repro.errors import ConfigurationError
from repro.generators import (
    barabasi_albert_graph,
    kronecker_graph,
    road_network_graph,
    uniform_random_graph,
)
from repro.graph.builder import build_csr, from_edge_list
from repro.graph.coo import EdgeList
from repro.unionfind import sequential_components


def solve(graph, ranks, **kwargs):
    """One ``sv`` solve on ``ranks`` ranks: (result, backend)."""
    backend = DistributedBackend(ranks=ranks, **kwargs)
    return engine.run("sv", graph, backend=backend), backend


@st.composite
def tailed_graphs(draw):
    """Up to 40 vertices: random edges among the first ``core`` of them,
    then an isolated tail, so the last edge blocks can be empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    core = draw(st.integers(0, 30))
    n = core + draw(st.integers(0, 10))
    m = draw(st.integers(0, 3 * core)) if core else 0
    src, dst = rng.integers(0, max(core, 1), size=(2, m))
    return build_csr(EdgeList(n, src, dst), drop_self_loops=False)


class TestPartitioners:
    def test_covers_each_edge_once(self, mixed_graph):
        sizes = DistributedBackend(ranks=3).shard_sizes(mixed_graph)
        assert len(sizes) == 3
        assert sum(sizes) == mixed_graph.num_directed_edges

    def test_block_is_contiguous(self):
        bounds = block_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.all(np.diff(bounds) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(graph=tailed_graphs(), ranks=st.integers(1, 9), data=st.data())
    def test_edge_owner_matches_block_owner_array(self, graph, ranks, data):
        """The owner that ``frontier_expand`` looks up for a CSR offset is
        the rank whose block holds it, as an m-sized owner array filled
        block by block says, empty blocks included."""
        m = graph.num_directed_edges
        owner = np.empty(m, dtype=np.int64)
        for r, blk in enumerate(partition_csr_blocks(graph.indptr, ranks)):
            owner[blk.e_lo : blk.e_hi] = r
        backend = DistributedBackend(ranks)
        every = np.arange(m)
        assert backend._edge_owner(graph, every).tolist() == owner.tolist()
        # A frontier's offsets come in any order, repeats included.
        picks = np.asarray(
            data.draw(st.lists(st.integers(0, m - 1) if m else st.nothing())),
            dtype=np.int64,
        )
        assert backend._edge_owner(graph, picks).tolist() == owner[picks].tolist()

    def test_rejects_zero_ranks(self):
        with pytest.raises(ConfigurationError):
            block_bounds(10, 0)


class TestDistributedCC:
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 7, 8])
    def test_exact_on_mixed(self, ranks, mixed_graph):
        result, _ = solve(mixed_graph, ranks)
        assert equivalent_labelings(
            result.labels, sequential_components(mixed_graph)
        )

    def test_exact_on_kron(self):
        g = kronecker_graph(9, edge_factor=8, seed=0)
        result, _ = solve(g, 4)
        assert is_valid_labeling(g, result.labels)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs(self, random_graph_factory, seed):
        g = random_graph_factory(40, 80, seed)
        result, _ = solve(g, 5)
        assert is_valid_labeling(g, result.labels)

    def test_empty_graph(self, empty_graph):
        result, _ = solve(empty_graph, 2)
        assert result.labels.shape == (0,)

    def test_single_rank_is_communication_free(self, two_cliques):
        _, backend = solve(two_cliques, 1)
        assert backend.comm.stats.messages == 0
        assert backend.comm.stats.supersteps == 0

    def test_supersteps_reach_run_counters(self, two_cliques):
        backend = DistributedBackend(ranks=4)
        result = engine.run("sv", two_cliques, backend=backend, profile=True)
        assert backend.comm.stats.supersteps >= 1
        assert result.counters["comm_supersteps"] == backend.comm.stats.supersteps

    def test_traffic_below_forest_reduction_baseline(self):
        """Delta exchange beats shipping whole parent arrays: a whole-array
        reduction puts ``8n`` bytes on the wire per peer (``8n(R - 1)``
        per rank)."""
        g = uniform_random_graph(256, edge_factor=4, seed=1)
        _, backend = solve(g, 4)
        per_rank = backend.comm.stats.sent_by_rank(4)
        assert 0 < max(per_rank) < 8 * g.num_vertices * 3

    def test_external_comm_accumulates(self):
        g = uniform_random_graph(128, edge_factor=4, seed=2)
        comm = SimulatedComm(2)
        solve(g, 2, comm=comm)
        first = comm.stats.bytes_sent
        solve(g, 2, comm=comm)
        assert comm.stats.bytes_sent == 2 * first

    def test_used_comm_reports_only_this_backends_traffic(self):
        """A backend built over a communicator that already carried
        traffic counts none of it: its run's ``comm_*`` counters and
        ``comm_step_bytes`` histogram read as a fresh backend's."""
        g = uniform_random_graph(400, edge_factor=4, seed=5)

        def traffic(backend):
            trace = engine.run("sv", g, backend=backend, profile=True).trace
            comm = {k: v for k, v in trace.counters.items() if k.startswith("comm_")}
            return comm, trace.histograms["comm_step_bytes"]

        comm = SimulatedComm(2)
        fresh = traffic(DistributedBackend(ranks=2, comm=comm))
        assert fresh[0]["comm_bytes_sent"] > 0
        assert traffic(DistributedBackend(ranks=2, comm=comm)) == fresh

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="ranks"):
            DistributedBackend(ranks=3, comm=SimulatedComm(2))

    def test_local_edges_recorded(self):
        g = uniform_random_graph(200, edge_factor=4, seed=3)
        _, backend = solve(g, 4)
        assert sum(backend.shard_sizes(g)) == g.num_directed_edges

    def test_bit_identical_to_engine_backend(self, mixed_graph):
        """Superstep merges reproduce the single-machine labels exactly."""
        dist, _ = solve(mixed_graph, 4)
        vec = engine.run("sv", mixed_graph)
        assert np.array_equal(dist.labels, vec.labels)


#: ``(comm_bytes_sent, comm_messages, comm_supersteps)`` of one solve of
#: ``kronecker_graph(9, edge_factor=8, seed=0)`` per (algorithm, ranks).
#: The merge bookkeeping may change how candidates are deduplicated and
#: routed, never what crosses the wire.  ``sv`` pins the hook exchange,
#: ``lp`` the sweep exchange (``_sweep_exchange``), and ``bfs``/``dobfs``
#: the frontier exchanges plus the broadcast of each component's seed,
#: batched with the seeds of the isolated vertices before it.
PINNED_TRAFFIC = {
    ("afforest", 2): (2076, 20, 16),
    ("afforest", 4): (6084, 75, 18),
    ("afforest", 16): (28892, 690, 18),
    ("sv", 2): (2524, 4, 2),
    ("sv", 4): (7872, 36, 4),
    ("sv", 16): (33936, 623, 4),
    ("lp", 2): (7060, 8, 4),
    ("lp", 4): (21444, 89, 8),
    ("lp", 16): (86144, 1507, 8),
    ("bfs", 2): (2748, 9, 7),
    ("bfs", 4): (8280, 62, 9),
    ("dobfs", 2): (1932, 9, 7),
    ("dobfs", 4): (5796, 39, 7),
}

#: The same totals for ``afforest`` on ``barabasi_albert_graph(3000,
#: edges_per_vertex=4, seed=1)``, numbered in growth order: round 0
#: leaves one tree, so round 1 runs no barrier and ``C1`` and ``C*`` no
#: sweep (``link_rounds`` [1, 0, 0], ``compress_passes`` [3, 0, 0]).
PINNED_CONNECTED_TRAFFIC = {
    2: (12032, 6, 5),
    4: (36096, 24, 5),
}


class TestExchangeTraffic:
    @pytest.fixture(scope="class")
    def graph(self):
        return kronecker_graph(9, edge_factor=8, seed=0)

    # The ids keep the name of the edge layout the totals were pinned on.
    @pytest.mark.parametrize(
        "algorithm,ranks",
        sorted(PINNED_TRAFFIC),
        ids=[f"{a}-R{r}-block" for a, r in sorted(PINNED_TRAFFIC)],
    )
    def test_traffic_pinned(self, graph, algorithm, ranks):
        backend = DistributedBackend(ranks=ranks)
        result = engine.run(algorithm, graph, backend=backend, profile=True)
        counters = result.counters
        assert (
            counters["comm_bytes_sent"],
            counters["comm_messages"],
            counters["comm_supersteps"],
        ) == PINNED_TRAFFIC[(algorithm, ranks)]
        assert np.array_equal(result.labels, engine.run(algorithm, graph).labels)

    @pytest.mark.parametrize(
        "ranks",
        sorted(PINNED_CONNECTED_TRAFFIC),
        ids=[f"R{r}-block" for r in sorted(PINNED_CONNECTED_TRAFFIC)],
    )
    def test_connected_order_traffic_pinned(self, ranks):
        graph = barabasi_albert_graph(3000, edges_per_vertex=4, seed=1)
        backend = DistributedBackend(ranks=ranks)
        result = engine.run("afforest", graph, backend=backend, profile=True)
        counters = result.counters
        assert (
            counters["comm_bytes_sent"],
            counters["comm_messages"],
            counters["comm_supersteps"],
        ) == PINNED_CONNECTED_TRAFFIC[ranks]
        assert result.link_rounds == [1, 0, 0]
        assert result.compress_passes == [3, 0, 0]
        assert counters["rounds_skipped"] == 2
        assert not result.labels.any()

    @pytest.mark.parametrize("ranks", [1, 4])
    def test_replica_bytes(self, graph, ranks):
        result = engine.run(
            "afforest", graph, backend=DistributedBackend(ranks=ranks), profile=True
        )
        n = graph.num_vertices
        assert result.counters["replica_bytes"] == ranks * n * 4  # int32 labels

    def test_exchange_spans(self, graph):
        result = engine.run(
            "afforest", graph, backend=DistributedBackend(ranks=2), profile=True
        )
        spans = [s for s, _ in result.trace.walk()]
        exchanges = [s for s in spans if s.name == "X"]
        assert exchanges and all(not s.children for s in exchanges)
        # The merge is compute: it sits beside the exchange span, not in it.
        merge_parents = [
            s.name for s in spans for c in s.children if c.name == "X-merge"
        ]
        assert merge_parents and "X" not in merge_parents


#: ``(bytes_sent, messages, supersteps, bytes_per_rank)`` of one
#: ``sv`` solve of ``barabasi_albert_graph(5000,
#: edges_per_vertex=4, seed=7)``, per rank
#: count: the traffic-vs-ranks curve.  Skewed degrees make the early dense
#: rounds a worst case for delta shipping.  The simulated communicator is
#: deterministic, so any movement is protocol drift.
PINNED_CURVE = {
    2: (31777, 2, 1, [20000, 11777]),
    4: (90605, 21, 2, [27371, 25755, 21274, 16205]),
    8: (
        189836,
        96,
        2,
        [27837, 27461, 26797, 25038, 23399, 21644, 19773, 17887],
    ),
}


class TestTrafficCurve:
    @pytest.fixture(scope="class")
    def graph(self):
        return barabasi_albert_graph(5000, edges_per_vertex=4, seed=7)

    @pytest.mark.parametrize("ranks", sorted(PINNED_CURVE))
    def test_curve_pinned(self, graph, ranks):
        result, backend = solve(graph, ranks)
        stats = backend.comm.stats
        per_rank = list(stats.sent_by_rank(ranks))
        assert (
            stats.bytes_sent,
            stats.messages,
            stats.supersteps,
            per_rank,
        ) == PINNED_CURVE[ranks]
        # A whole-array reduction ships 8n bytes to each of R - 1 peers.
        assert max(per_rank) < 8 * graph.num_vertices * (ranks - 1)
        vec = engine.run("sv", graph)
        assert np.array_equal(result.labels, vec.labels)


def _road_permuted_unsorted():
    """The 256² road proxy with random vertex ids and neighbour lists in
    input order, so first slots point up as often as down."""
    graph = road_network_graph(256, 256, seed=3)
    src, dst = graph.edge_array()
    perm = np.random.default_rng(5).permutation(graph.num_vertices)
    edges = EdgeList(graph.num_vertices, perm[src], perm[dst])
    return build_csr(edges, sort_neighbors=False)


def _self_loops_and_isolated():
    """Random edges on vertices 0..1999, self-loops on some of 0..2499,
    and vertices up to 2999 with no edge at all."""
    rng = np.random.default_rng(6)
    src, dst = rng.integers(0, 2000, size=(2, 4000))
    loops = rng.integers(0, 2500, size=300)
    edges = EdgeList(
        3000, np.concatenate((src, loops)), np.concatenate((dst, loops))
    )
    return build_csr(edges, drop_self_loops=False)


AFFOREST_GRAPHS = {
    "road": lambda: road_network_graph(256, 256, seed=3),
    "ba": lambda: barabasi_albert_graph(5000, 3, seed=4),
    "road-permuted-unsorted": _road_permuted_unsorted,
    "self-loops-isolated": _self_loops_and_isolated,
    "empty": lambda: from_edge_list([], num_vertices=0),
}

#: every Afforest result the two link implementations must agree on
AFFOREST_FIELDS = (
    "link_rounds",
    "compress_passes",
    "edges_sampled",
    "edges_final",
    "edges_skipped",
    "largest_label",
)


class TestAfforestMatchesVectorized:
    """Whole Afforest runs agree with the vectorized backend: labels and
    every counter.  Both backends gather each neighbour round with
    ``round_neighbors`` and run ``link_out``'s identity round, so this
    is a consistency check, not an independent reference; that is the
    vertex-list batch path in ``test_neighbor_rounds.py``."""

    @pytest.fixture(scope="class")
    def vectorized(self):
        graphs = {name: make() for name, make in AFFOREST_GRAPHS.items()}
        runs = {
            (name, sampling): engine.run("afforest", g, sampling=sampling)
            for name, g in graphs.items()
            for sampling in ("first", "random")
        }
        return graphs, runs

    @pytest.mark.parametrize("sampling", ["first", "random"])
    @pytest.mark.parametrize("ranks", [1, 3], ids=["1-block", "3-block"])
    @pytest.mark.parametrize("name", list(AFFOREST_GRAPHS))
    def test_same_labels_and_counters(self, vectorized, name, ranks, sampling):
        graphs, runs = vectorized
        vec = runs[name, sampling]
        dist = engine.run(
            "afforest",
            graphs[name],
            backend=DistributedBackend(ranks=ranks),
            sampling=sampling,
        )
        assert np.array_equal(dist.labels, vec.labels)
        for field in AFFOREST_FIELDS:
            assert getattr(dist, field) == getattr(vec, field), field


class TestDedupMin:
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_sorted_distinct_minima(self, dtype):
        backend = DistributedBackend(ranks=2)
        idx = np.array([9, 3, 9, 0, 3, 9, 17], dtype=np.int64)
        val = np.array([5, 2, 1, 0, 2, 4, 8], dtype=dtype)
        uniq, mins = backend._dedup_min(idx, val, 64)
        assert uniq.tolist() == [0, 3, 9, 17]
        assert mins.tolist() == [0, 2, 1, 8]
        assert mins.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_reference_on_random_input(self, dtype):
        backend = DistributedBackend(ranks=2)
        rng = np.random.default_rng(3)
        for k in (1, 5, 40, 500):
            n = 256
            idx = rng.integers(0, n, size=k)
            val = rng.integers(0, n, size=k).astype(dtype)
            uniq, mins = backend._dedup_min(idx, val, n)
            expected = {}
            for i, v in zip(idx.tolist(), val.tolist()):
                expected[i] = min(v, expected.get(i, v))
            assert uniq.tolist() == sorted(expected)
            assert mins.tolist() == [expected[i] for i in sorted(expected)]

    def test_pooled_buffer_reused(self):
        backend = DistributedBackend(ranks=2)
        allocated = []
        backend.pool = BufferPool(allocated.append)
        first = backend._dedup_min(
            np.array([4, 1, 4]), np.array([3, 0, 2], dtype=np.int32), 64
        )
        second = backend._dedup_min(
            np.array([2, 2]), np.array([7, 6], dtype=np.int32), 64
        )
        assert [a.tolist() for a in first] == [[1, 4], [0, 2]]
        # Nothing of the first call's minima leaks into the second.
        assert [a.tolist() for a in second] == [[2], [6]]
        assert allocated == [64 * 4]
