"""Buffer pool and the optimization-observability counters.

Covers the :class:`~repro.engine.bufferpool.BufferPool` contract (named
reuse, growth, dtype change, allocation accounting) and the end-to-end
counters a profiled run reports: ``bytes_allocated``
(scratch demanded by the round structure; zero on a warm pool) and
``rounds_skipped`` (change-detection eliding SV's final no-op compress).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import engine
from repro.engine import DistributedBackend, VectorizedBackend
from repro.engine.bufferpool import BufferPool
from repro.generators import barabasi_albert_graph, uniform_random_graph
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList


class TestBufferPool:
    def test_returns_requested_size_and_dtype(self):
        pool = BufferPool()
        view = pool.get("a", 10, np.int32)
        assert view.shape == (10,)
        assert view.dtype == np.int32

    def test_reuses_capacity_for_smaller_requests(self):
        allocs: list[int] = []
        pool = BufferPool(allocs.append)
        big = pool.get("a", 100, np.int64)
        big[:] = 7
        small = pool.get("a", 10, np.int64)
        # Same storage handed back as a prefix view: no new allocation.
        assert small.base is big.base or small.base is big
        assert allocs == [100 * 8]

    def test_grows_and_reports_fresh_bytes(self):
        allocs: list[int] = []
        pool = BufferPool(allocs.append)
        pool.get("a", 10, np.int64)
        pool.get("a", 20, np.int64)
        assert allocs == [10 * 8, 20 * 8]

    def test_dtype_change_reallocates(self):
        allocs: list[int] = []
        pool = BufferPool(allocs.append)
        pool.get("a", 8, np.int64)
        pool.get("a", 8, np.int32)
        assert len(allocs) == 2

    def test_names_are_independent(self):
        pool = BufferPool()
        a = pool.get("a", 4, np.int64)
        b = pool.get("b", 4, np.int64)
        a[:] = 1
        b[:] = 2
        assert a.sum() == 4  # b's writes must not alias a

    def test_take_gathers_into_pool(self):
        pool = BufferPool()
        arr = np.arange(10, dtype=np.int64) * 3
        idx = np.array([0, 4, 9])
        out = pool.take(arr, idx, "gather")
        assert np.array_equal(out, [0, 12, 27])
        # Second gather reuses the same buffer.
        again = pool.take(arr, idx, "gather")
        assert again.base is out.base or again.base is out

    def test_zero_size_request(self):
        pool = BufferPool()
        assert pool.get("a", 0, np.int64).shape == (0,)

    def test_clear_forgets_buffers(self):
        allocs: list[int] = []
        pool = BufferPool(allocs.append)
        pool.get("a", 10, np.int64)
        pool.clear()
        pool.get("a", 10, np.int64)
        assert len(allocs) == 2


class TestOptimizationCounters:
    def test_sv_skips_converged_compress(self, mixed_graph):
        result = engine.run("sv", mixed_graph, profile=True)
        if result.iterations > 1:
            assert result.counters.get("rounds_skipped", 0) >= 1

    def test_warm_pool_allocates_nothing(self):
        g = uniform_random_graph(400, edge_factor=4, seed=5)
        backend = VectorizedBackend()
        first = engine.run("sv", g, backend=backend, profile=True)
        second = engine.run("sv", g, backend=backend, profile=True)
        assert first.counters.get("bytes_allocated", 0) == 45_476
        # Every scratch buffer already fits, so the warm run reports zero
        # fresh bytes (the counter is absent or 0).
        assert second.counters.get("bytes_allocated", 0) == 0

    def test_warm_pool_covers_dobfs_frontier_masks(self):
        # The per-round bottom-up mask must come from the pool, not a
        # fresh np.zeros per sweep.
        g = uniform_random_graph(400, edge_factor=4, seed=5)
        backend = VectorizedBackend()
        engine.run("dobfs", g, backend=backend, profile=True)
        second = engine.run("dobfs", g, backend=backend, profile=True)
        assert second.counters.get("bytes_allocated", 0) == 0

    def test_warm_distributed_backend_allocates_nothing(self):
        # Covers the sharded substrate too: its per-rank scratch must be
        # reused on a same-shape rerun.
        from repro.engine import DistributedBackend

        g = uniform_random_graph(400, edge_factor=4, seed=5)
        backend = DistributedBackend(ranks=2)
        first = engine.run("sv", g, backend=backend, profile=True)
        second = engine.run("sv", g, backend=backend, profile=True)
        assert first.counters.get("bytes_allocated", 0) == 3_200
        assert second.counters.get("bytes_allocated", 0) == 0

    def test_counters_empty_without_profiling(self, mixed_graph):
        result = engine.run("sv", mixed_graph)
        assert result.counters == {}

    def test_counters_reach_bench_records(self):
        from repro.bench.runner import run_algorithm

        g = uniform_random_graph(300, edge_factor=4, seed=2)
        rec = run_algorithm(g, "sv", "g", repeats=2)
        counters = rec.extra.get("counters", {})
        assert counters.get("rounds_skipped", 0) == 1
        assert counters.get("bytes_allocated", 0) > 0


#: one backend of each kind that runs Afforest's neighbour rounds
REUSED_BACKENDS = {
    "vectorized": VectorizedBackend,
    "distributed-block": lambda: DistributedBackend(ranks=3, partition="block"),
    "distributed-hash": lambda: DistributedBackend(ranks=3, partition="hash"),
}


def _degree_two_up():
    """Graph A: power-law degrees, all but one vertex of degree >= 2."""
    return barabasi_albert_graph(600, 2, seed=3)


def _sparse_with_tail():
    """Graph B: fewer vertices than A, most of degree 0 to 2, and 40
    isolated vertices after the last edge."""
    rng = np.random.default_rng(8)
    src, dst = rng.integers(0, 260, size=(2, 200))
    return build_csr(EdgeList(300, src, dst))


def _recorded(result):
    """Everything a run records except its times and ``bytes_allocated``."""
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    labels = fields.pop("labels")
    trace = fields.pop("trace")
    fields["phase_seconds"] = sorted(fields["phase_seconds"])
    fields["counters"].pop("bytes_allocated", None)
    trace.counters.pop("bytes_allocated", None)
    spans = [(span.label, depth) for span, depth in trace.walk()]
    return (
        labels.dtype,
        labels.tobytes(),
        fields,
        spans,
        trace.counters,
        trace.gauges,
        trace.histograms,
    )


@pytest.mark.parametrize("rounds", [2, 3])
@pytest.mark.parametrize("kind", sorted(REUSED_BACKENDS))
def test_one_backend_across_graphs(kind, rounds):
    """Afforest on graph A, then on a smaller B of another degree profile,
    then on A again, all on one backend: each run records what a fresh
    backend records (the per-graph degree and short-vertex caches follow
    the graph), and the warm re-run of A allocates no pooled buffer."""
    make = REUSED_BACKENDS[kind]
    a, b = _degree_two_up(), _sparse_with_tail()
    assert b.num_vertices < a.num_vertices
    shared = make()
    for g in (a, b, a):
        got = engine.run(
            "afforest", g, backend=shared, profile=True, neighbor_rounds=rounds
        )
        want = engine.run(
            "afforest", g, backend=make(), profile=True, neighbor_rounds=rounds
        )
        assert want.counters["bytes_allocated"] > 0
        assert _recorded(got) == _recorded(want)
    assert got.counters.get("bytes_allocated", 0) == 0
