"""Tests for distributed connected components through ``engine.run``."""

import numpy as np
import pytest

from repro import engine
from repro.analysis import equivalent_labelings, is_valid_labeling
from repro.distributed import SimulatedComm, block_bounds, hash_owners
from repro.engine import DistributedBackend
from repro.errors import ConfigurationError
from repro.generators import kronecker_graph, uniform_random_graph
from repro.unionfind import sequential_components


def solve(graph, ranks, **kwargs):
    """One ``none+fastsv`` solve on ``ranks`` ranks: (result, backend)."""
    backend = DistributedBackend(ranks=ranks, **kwargs)
    return engine.run(graph, plan="none+fastsv", backend=backend), backend


class TestPartitioners:
    @pytest.mark.parametrize("partition", ["block", "hash"])
    def test_covers_each_edge_once(self, partition, mixed_graph):
        backend = DistributedBackend(ranks=3, partition=partition)
        sizes = backend.shard_sizes(mixed_graph)
        assert len(sizes) == 3
        assert sum(sizes) == mixed_graph.num_directed_edges

    def test_block_is_contiguous(self):
        bounds = block_bounds(10, 3)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.all(np.diff(bounds) >= 0)

    def test_hash_deterministic(self):
        a = hash_owners(50, 4, seed=1)
        assert np.array_equal(a, hash_owners(50, 4, seed=1))
        assert a.min() >= 0 and a.max() < 4

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

    @pytest.mark.parametrize("partition", ["block", "hash"])
    def test_exact_both_partitioners(self, partition):
        g = kronecker_graph(9, edge_factor=8, seed=0)
        result, _ = solve(g, 4, partition=partition)
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
        result = engine.run(
            two_cliques, plan="none+fastsv", backend=backend, profile=True
        )
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

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="ranks"):
            DistributedBackend(ranks=3, comm=SimulatedComm(2))

    def test_local_edges_recorded(self):
        g = uniform_random_graph(200, edge_factor=4, seed=3)
        _, backend = solve(g, 4)
        assert sum(backend.shard_sizes(g)) == g.num_directed_edges

    def test_bit_identical_to_engine_backend(self, mixed_graph):
        """Superstep merges reproduce the single-machine labels exactly."""
        dist, _ = solve(mixed_graph, 4, partition="hash")
        vec = engine.run(mixed_graph, plan="none+fastsv")
        assert np.array_equal(dist.labels, vec.labels)
