"""Tests for the connectivity service: epochs, snapshots, the oracle."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.generators import uniform_random_graph
from repro.graph.builder import from_edge_array
from repro.serve import ConnectivityService, Snapshot
from repro.unionfind import sequential_components


@pytest.fixture
def service(two_cliques):
    return ConnectivityService(two_cliques, recompress_every=1_000_000)


def _stream(n, m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m)


class TestInitialSolve:
    def test_epoch_zero_state(self, two_cliques, service):
        assert service.epoch == 0
        assert service.num_vertices == 8
        assert service.num_components == 2
        oracle = np.asarray(sequential_components(two_cliques))
        assert np.array_equal(service.labels(), oracle)

    def test_any_algorithm_and_plan(self, two_cliques):
        for name in ("sv", "afforest", "lp"):
            svc = ConnectivityService(two_cliques, algorithm=name)
            assert svc.num_components == 2
            assert svc.algorithm == name
        assert not hasattr(svc, "plan")

    def test_fingerprint_carried(self, two_cliques, service):
        assert service.fingerprint["vertices"] == 8
        assert "digest" in service.fingerprint

    def test_rejects_negative_recompress(self, two_cliques):
        with pytest.raises(ConfigurationError):
            ConnectivityService(two_cliques, recompress_every=-1)


class TestPointAndBatchReads:
    def test_point_queries(self, service):
        assert service.same_component(0, 3)
        assert not service.same_component(0, 4)
        assert service.component_size(2) == 4

    def test_batch_queries(self, service):
        same = service.same_component_batch(
            np.array([0, 0, 5]), np.array([1, 7, 6])
        )
        assert same.tolist() == [True, False, True]
        sizes = service.component_sizes(np.array([0, 4]))
        assert sizes.tolist() == [4, 4]

    def test_bounds_checked(self, service):
        with pytest.raises(ConfigurationError):
            service.same_component(0, 8)
        with pytest.raises(ConfigurationError):
            service.component_sizes(np.array([99]))

    def test_non_integer_ids_rejected(self, service):
        # A cast would truncate each id to a real vertex and answer.
        with pytest.raises(ConfigurationError, match="non-integer"):
            service.same_component_batch(np.array([0.0]), np.array([1.0]))
        with pytest.raises(ConfigurationError, match="non-integer"):
            service.component_sizes(np.array([4.5]))
        # timedelta64 subclasses NumPy's signedinteger, but holds no ids.
        with pytest.raises(ConfigurationError, match="non-integer"):
            service.component_sizes(np.array([4], dtype="m8[s]"))

    def test_empty_batches_of_any_dtype_accepted(self, service):
        empty = np.asarray([])
        assert service.same_component_batch(empty, empty).shape == (0,)
        assert service.component_sizes(empty).shape == (0,)

    def test_query_counters(self, service):
        service.same_component(0, 1)
        service.same_component_batch(np.array([0]), np.array([1]))
        counters = service.metrics.counters_snapshot()
        assert counters["serve_point_queries"] == 1
        assert counters["serve_batch_queries"] == 1
        assert counters["serve_queried_pairs"] == 1


class TestNonIntegerUpdates:
    """Float endpoints are rejected, never truncated into real edges."""

    def test_add_edges_rejects_float_ids(self, service):
        with pytest.raises(ConfigurationError, match="non-integer"):
            service.add_edges(np.array([0.5]), np.array([4.9]))
        service.refresh()
        assert not service.same_component(0, 4)
        assert service.num_components == 2
        assert service.inserted_edges()[0].size == 0

    def test_add_edge_rejects_float_ids(self, service):
        with pytest.raises(ConfigurationError, match="non-integer"):
            service.add_edge(0.5, 4.2)
        service.refresh()
        assert not service.same_component(0, 4)

    def test_empty_update_of_any_dtype_accepted(self, service):
        epoch = service.add_edges(np.asarray([]), np.asarray([]))
        assert epoch == service.epoch
        assert service.num_components == 2


class TestSnapshots:
    def test_labels_are_immutable(self, service):
        snap = service.snapshot
        with pytest.raises(ValueError):
            snap.labels[0] = 7
        with pytest.raises(ValueError):
            snap.sizes[0] = 7

    def test_updates_invisible_until_publish(self, service):
        assert not service.same_component(0, 4)
        service.add_edge(0, 4)
        # Absorbed (pending) but the published epoch is unchanged.
        assert service.pending_updates == 1
        assert service.epoch == 0
        assert not service.same_component(0, 4)
        assert service.refresh() == 1
        assert service.same_component(0, 4)
        assert service.num_components == 1

    def test_old_snapshot_stays_coherent(self, service):
        old = service.snapshot
        service.add_edge(0, 4)
        service.refresh()
        # A reader holding the old epoch keeps its complete view.
        assert old.epoch == 0
        assert not old.same_component(0, 4)
        assert old.num_components == 2
        assert service.snapshot.same_component(0, 4)

    def test_auto_publish_at_recompress_every(self, two_cliques):
        svc = ConnectivityService(two_cliques, recompress_every=4)
        src, dst = _stream(8, 3, seed=0)
        svc.add_edges(src, dst)
        assert svc.epoch == 0  # 3 < 4: still pending
        svc.add_edges(*_stream(8, 2, seed=1))
        assert svc.epoch == 1  # 5 >= 4: published

    def test_edges_to_publish(self, two_cliques):
        svc = ConnectivityService(two_cliques, recompress_every=4)
        assert svc.edges_to_publish == 4
        svc.add_edges(*_stream(8, 3, seed=0))
        assert (svc.edges_to_publish, svc.epoch) == (1, 0)
        svc.add_edge(0, 4)  # exactly the remaining edge publishes
        assert (svc.edges_to_publish, svc.epoch) == (4, 1)
        svc = ConnectivityService(two_cliques, recompress_every=0)
        assert svc.edges_to_publish is None

    def test_refresh_noop_when_clean(self, service):
        assert service.refresh() == 0
        service.add_edge(0, 4)
        assert service.refresh() == 1
        assert service.refresh() == 1  # nothing pending, same epoch

    def test_recompress_zero_defers_to_refresh(self, two_cliques):
        svc = ConnectivityService(two_cliques, recompress_every=0)
        svc.add_edges(*_stream(8, 50, seed=2))
        assert svc.epoch == 0
        assert svc.refresh() == 1

    def test_on_epoch_callback(self, two_cliques):
        seen: list[Snapshot] = []
        svc = ConnectivityService(
            two_cliques, recompress_every=2, on_epoch=seen.append
        )
        svc.add_edges(np.array([0, 1]), np.array([4, 5]))
        svc.add_edge(2, 6)
        svc.refresh()
        assert [s.epoch for s in seen] == [1, 2]
        assert seen[0].edges_applied == 2
        assert seen[1].edges_applied == 3


class TestOracleBitIdentity:
    def test_every_epoch_matches_batch_resolve(self):
        graph = uniform_random_graph(500, num_edges=700, seed=9)
        captured = []
        svc = ConnectivityService(
            graph,
            recompress_every=64,
            on_epoch=lambda s: captured.append((s.edges_applied, s.labels)),
        )
        captured.append((0, svc.snapshot.labels))
        rng = np.random.default_rng(10)
        for _ in range(6):
            svc.add_edges(
                rng.integers(0, 500, size=50), rng.integers(0, 500, size=50)
            )
        svc.refresh()
        assert len(captured) >= 4
        for applied, labels in captured:
            assert np.array_equal(labels, svc.batch_resolve(applied))

    def test_published_count_matches_census(self):
        # Many small components, and bursts with duplicates and self-loops,
        # so most bursts merge several components.
        graph = uniform_random_graph(300, num_edges=120, seed=5)
        snapshots: list[Snapshot] = []
        svc = ConnectivityService(
            graph, recompress_every=40, on_epoch=snapshots.append
        )
        snapshots.append(svc.snapshot)
        rng = np.random.default_rng(6)
        for _ in range(12):
            src, dst = _stream(300, 16, seed=int(rng.integers(1 << 30)))
            svc.add_edges(
                np.concatenate([src, src[:3], dst[:2]]),
                np.concatenate([dst, dst[:3], dst[:2]]),
            )
        svc.refresh()
        assert len(snapshots) >= 5
        for snap in snapshots:
            assert snap.num_components == np.count_nonzero(snap.sizes)

    def test_inserted_edges_in_order(self, service):
        service.add_edges(np.array([0, 1]), np.array([4, 5]))
        service.add_edge(2, 6)
        src, dst = service.inserted_edges()
        assert src.tolist() == [0, 1, 2]
        assert dst.tolist() == [4, 5, 6]

    def test_batch_resolve_prefix(self, service):
        service.add_edge(0, 4)
        service.add_edge(1, 5)
        base = service.batch_resolve(0)
        assert np.array_equal(base, service.snapshot.labels)  # epoch 0
        full = service.batch_resolve()
        assert (full == full[0]).sum() == 8  # cliques joined


class TestWriteCost:
    def test_add_edges_below_publish_threshold_allocates_o_batch(self):
        n = 1 << 20
        rng = np.random.default_rng(1)
        graph = from_edge_array(
            rng.integers(0, n, 1 << 16), rng.integers(0, n, 1 << 16),
            num_vertices=n,
        )
        svc = ConnectivityService(graph, recompress_every=1 << 20)
        svc.add_edges(rng.integers(0, n, 32), rng.integers(0, n, 32))
        src, dst = rng.integers(0, n, 32), rng.integers(0, n, 32)
        tracemalloc.start()
        try:
            svc.add_edges(src, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert svc.epoch == 0  # nothing published: the write alone
        assert peak < 64 * 1024


class TestTelemetry:
    def test_update_counters_and_gauges(self, service):
        service.add_edges(np.array([0, 1]), np.array([4, 5]))
        counters = service.metrics.counters_snapshot()
        gauges = service.metrics.gauges_snapshot()
        assert counters["serve_updates"] == 1
        assert counters["serve_edges_inserted"] == 2
        assert gauges["serve_pending_updates"] == 2
        service.refresh()
        gauges = service.metrics.gauges_snapshot()
        assert gauges["serve_epoch"] == 1
        assert gauges["serve_pending_updates"] == 0
        assert gauges["serve_components"] == service.num_components

    def test_prometheus_export(self, two_cliques):
        svc = ConnectivityService(two_cliques, dataset="cliques")
        svc.same_component(0, 1)
        text = svc.prometheus(job="test")
        assert "repro_serve_point_queries_total" in text
        assert 'dataset="cliques"' in text
        assert 'job="test"' in text
