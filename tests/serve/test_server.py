"""Tests for the request layer: batching, backpressure, shutdown, ledger."""

import time

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.generators import uniform_random_graph
from repro.obs.ledger import RunLedger
from repro.serve import (
    BackpressureError,
    ConnectivityServer,
    ConnectivityService,
    ServerClosedError,
)
from repro.serve.server import _Request


@pytest.fixture
def service(two_cliques):
    return ConnectivityService(two_cliques, recompress_every=1_000_000)


def _stall(service, seconds=0.15):
    """Make the worker's next size query slow, so submissions pile up."""
    original = service.component_sizes
    state = {"stalled": False}

    def slow(vs):
        if not state["stalled"]:
            state["stalled"] = True
            time.sleep(seconds)
        return original(vs)

    service.component_sizes = slow
    return state


class TestRequestPath:
    def test_futures_resolve(self, service):
        with ConnectivityServer(service) as server:
            same = server.submit_same(np.array([0, 0]), np.array([3, 4]))
            sizes = server.submit_sizes(np.array([1, 7]))
            assert same.result(5).tolist() == [True, False]
            assert sizes.result(5).tolist() == [4, 4]

    def test_sync_helpers(self, service):
        with ConnectivityServer(service) as server:
            assert server.same_component(0, 1)
            assert not server.same_component(0, 7)
            assert server.component_size(5) == 4

    def test_updates_ordered_with_refresh(self, service):
        with ConnectivityServer(service) as server:
            assert not server.same_component(0, 4)
            server.submit_update(np.array([0]), np.array([4]))
            epoch = server.submit_refresh().result(5)
            assert epoch == 1
            assert server.same_component(0, 4)

    def test_error_propagates_and_loop_survives(self, service):
        with ConnectivityServer(service) as server:
            bad = server.submit_sizes(np.array([99]))
            with pytest.raises(ConfigurationError):
                bad.result(5)
            # The loop is still serving after a failed request.
            assert server.component_size(0) == 4
            assert service.metrics.counters_snapshot()["serve_errors"] == 1

    def test_coalescing_under_load(self, service):
        _stall(service)
        with ConnectivityServer(service, max_batch=64) as server:
            server.submit_sizes(np.array([0]))  # stalls the loop
            futures = [
                server.submit_same(np.array([i % 8]), np.array([7]))
                for i in range(20)
            ]
            for fut in futures:
                fut.result(5)
        counters = service.metrics.counters_snapshot()
        # The 20 queued pair queries drained as contiguous runs answered
        # by shared vectorized gathers, not 20 separate calls.
        assert counters["serve_coalesced"] >= 20
        assert counters["serve_batch_queries"] < 21

    def test_cancelled_queued_insert_is_never_applied(self, service):
        _stall(service)
        with ConnectivityServer(service, max_batch=64) as server:
            server.submit_sizes(np.array([0]))  # stalls the loop
            gone = server.submit_update(np.array([0]), np.array([4]))
            assert gone.cancel()
            kept = server.submit_update(np.array([1]), np.array([2]))
            assert server.submit_refresh().result(5) == 1
            assert kept.result(5) == 0
            assert not server.same_component(0, 4)
        assert gone.cancelled()
        assert service.inserted_edges()[0].tolist() == [1]
        counters = service.metrics.counters_snapshot()
        assert counters["serve_updates"] == 1
        assert counters["serve_edges_inserted"] == 1

    def test_results_split_per_request(self, service):
        _stall(service)
        with ConnectivityServer(service, max_batch=64) as server:
            server.submit_sizes(np.array([0]))
            a = server.submit_same(np.array([0, 1]), np.array([1, 4]))
            b = server.submit_same(np.array([4]), np.array([5]))
            assert a.result(5).tolist() == [True, False]
            assert b.result(5).tolist() == [True]


def _request(kind, *arrays):
    return _Request(
        kind=kind,
        payload=tuple(np.asarray(a) for a in arrays),
        t_submit=time.perf_counter(),
    )


class TestMalformedRequests:
    """A malformed request fails alone, never its coalesced neighbours."""

    @pytest.mark.parametrize(
        "us, vs",
        [([0, 1], [1, 2, 3]), ([0, 1, 2], [1, 2]), ([[0, 1]], [[1, 2]])],
        ids=["short-us", "short-vs", "2-D"],
    )
    def test_submit_rejects_bad_shapes(self, service, us, vs):
        with ConnectivityServer(service) as server:
            with pytest.raises(ConfigurationError):
                server.submit_same(np.array(us), np.array(vs))
            with pytest.raises(ConfigurationError):
                server.submit_update(np.array(us), np.array(vs))
            with pytest.raises(ConfigurationError):
                server.submit_sizes(np.array([us]))
            assert server.same_component(0, 1)
        assert service.metrics.counters_snapshot()["serve_requests"] == 1

    @pytest.mark.parametrize(
        "ids", [[True, False], [0.0, 4.0]], ids=["bool", "float"]
    )
    def test_submit_rejects_non_integer_ids(self, service, ids):
        with ConnectivityServer(service) as server:
            with pytest.raises(ConfigurationError, match="non-integer"):
                server.submit_same(np.array(ids), np.array([0, 1]))
            with pytest.raises(ConfigurationError, match="non-integer"):
                server.submit_update(np.array([0, 1]), np.array(ids))
            with pytest.raises(ConfigurationError, match="non-integer"):
                server.submit_sizes(np.array(ids))
            # An empty batch passes whatever its dtype, as at the service.
            empty = np.asarray([])
            assert server.submit_sizes(empty).result(5).shape == (0,)
        assert service.metrics.counters_snapshot()["serve_requests"] == 1

    def _run(self, service, *requests):
        ConnectivityServer(service)._run_batch(list(requests))
        return service.metrics.counters_snapshot().get("serve_errors", 0)

    def test_length_mismatch_fails_alone(self, service):
        bad = _request("same", [0, 1], [1, 2, 3])
        good = _request("same", [0, 4, 0], [1, 5, 7])
        assert self._run(service, bad, good) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert good.future.result(0).tolist() == [True, True, False]

    def test_out_of_range_fails_alone(self, service):
        good = _request("same", [2], [3])
        bad = _request("same", [0], [99])
        tail = _request("same", [0, 6], [4, 7])
        assert self._run(service, good, bad, tail) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert good.future.result(0).tolist() == [True]
        assert tail.future.result(0).tolist() == [False, True]

    def test_size_query_out_of_range_fails_alone(self, service):
        bad = _request("sizes", [99])
        good = _request("sizes", [0, 5])
        assert self._run(service, bad, good) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert good.future.result(0).tolist() == [4, 4]

    def test_float_ids_fail_alone(self, service):
        # Coalescing concatenates the three runs into one float array;
        # the per-request fallback then fails only the float request.
        good = _request("same", [0, 4], [3, 5])
        bad = _request("same", [0.0], [4.0])
        tail = _request("same", [1], [2])
        assert self._run(service, good, bad, tail) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert good.future.result(0).tolist() == [True, True]
        assert tail.future.result(0).tolist() == [True]

    def test_bool_query_fails_alone(self, service):
        # Joined to its integer neighbours, [True] would be cast to
        # vertex 1 and answered.
        good = _request("same", [0], [1])
        bad = _request("same", [True], [False])
        tail = _request("same", [4], [0])
        assert self._run(service, good, bad, tail) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert good.future.result(0).tolist() == [True]
        assert tail.future.result(0).tolist() == [False]

    def test_bool_insert_fails_alone(self, service):
        head = _request("update", [0], [4])
        bad = _request("update", [False], [True])
        tail = _request("update", [1, 2], [5, 6])
        assert self._run(service, head, bad, tail) == 1
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert head.future.result(0) == 0
        assert tail.future.result(0) == 0
        src, dst = service.inserted_edges()
        assert src.tolist() == [0, 1, 2]
        assert dst.tolist() == [4, 5, 6]
        counters = service.metrics.counters_snapshot()
        assert counters["serve_updates"] == 2
        assert counters["serve_edges_inserted"] == 3

    def test_two_dimensional_payload_spares_neighbours(self, service):
        flat = _request("same", [0, 4], [3, 3])
        grid = _request("same", [[0, 1]], [[1, 2]])
        self._run(service, flat, grid)
        assert flat.future.result(0).tolist() == [True, False]
        assert grid.future.done()

    def test_cancelled_request_spares_neighbours(self, service):
        gone = _request("same", [0], [1])
        assert gone.future.cancel()
        kept = _request("same", [0], [4])
        assert self._run(service, gone, kept) == 0
        assert kept.future.result(0).tolist() == [False]


def _log_calls(service, calls):
    """Append the name of each query and insert call to ``calls``."""
    for name in ("same_component_batch", "component_sizes", "add_edges"):
        method = getattr(service, name)

        def logged(*arrays, _method=method, _name=name):
            calls.append(_name)
            return _method(*arrays)

        setattr(service, name, logged)


class TestEpochSegments:
    def test_one_call_per_kind_and_per_insert_run(self, two_cliques):
        calls = []
        service = ConnectivityService(two_cliques, recompress_every=4)
        _log_calls(service, calls)
        server = ConnectivityServer(service, trace=True)
        batch = [
            _request("same", [0], [4]),
            _request("update", [0], [4]),
            _request("sizes", [0]),
            _request("update", [1, 2], [5, 6]),
            _request("same", [1], [5]),
            # 1 + 2 + 1 edges reach recompress_every: this one publishes.
            _request("update", [3], [7]),
            _request("same", [0], [4]),
            _request("sizes", [4]),
        ]
        server._run_batch(batch)
        assert calls == [
            "same_component_batch",
            "component_sizes",
            "add_edges",
            "same_component_batch",
            "component_sizes",
        ]
        # Each query reads the epoch the insert before it reported.
        results = [r.future.result(0) for r in batch]
        assert [results[i] for i in (1, 3, 5)] == [0, 0, 1]
        assert [results[i].tolist() for i in (0, 2, 4)] == [[False], [4], [False]]
        assert [results[i].tolist() for i in (6, 7)] == [[True], [8]]
        span = server.tracer.finish().spans[-1]
        assert span.label == "batch"
        assert span.attrs["runs"] == len(calls)

    def test_publish_error_is_not_retried(self, two_cliques):
        def fail(snapshot):
            raise RuntimeError("on_epoch failed")

        service = ConnectivityService(
            two_cliques, recompress_every=4, on_epoch=fail
        )
        first = _request("update", [0, 1], [4, 5])
        last = _request("update", [4, 5], [0, 1])
        ConnectivityServer(service)._run_batch([first, last])
        # The state one request at a time leaves: the second insert
        # published epoch 1 over all four edges and carries the error.
        assert first.future.result(0) == 0
        assert isinstance(last.future.exception(0), RuntimeError)
        assert service.epoch == 1
        assert service.snapshot.edges_applied == 4
        assert service.inserted_edges()[0].tolist() == [0, 1, 4, 5]
        counters = service.metrics.counters_snapshot()
        assert counters["serve_updates"] == 2
        assert counters["serve_errors"] == 1
        assert counters["serve_coalesced"] == 2  # one shared call

    def test_cancelled_insert_matches_a_stream_without_it(self, two_cliques):
        def run(with_cancelled):
            service = ConnectivityService(two_cliques, recompress_every=2)
            head = _request("update", [0], [1])
            gone = _request("update", [2], [4])
            assert gone.future.cancel()
            tail = _request("update", [6], [7])
            query = _request("same", [2], [4])
            batch = [head, gone, tail, query] if with_cancelled else [
                head, tail, query
            ]
            ConnectivityServer(service)._run_batch(batch)
            service.refresh()
            return service, [r.future for r in (head, tail, query)]

        service, futures = run(True)
        twin, twin_futures = run(False)
        # Counted with the cancelled insert, head + gone would publish
        # and join the cliques; without it, tail publishes, intra-clique.
        for got, want in ((service, futures), (twin, twin_futures)):
            assert [f.result(0) for f in want[:2]] == [0, 1]
            assert want[2].result(0).tolist() == [False]
            assert not got.same_component(2, 4)
        assert service.epoch == twin.epoch
        for got, want in zip(service.inserted_edges(), twin.inserted_edges()):
            assert got.tolist() == want.tolist()
        assert (
            service.metrics.counters_snapshot()
            == twin.metrics.counters_snapshot()
        )

    def test_cancelled_refresh_publishes_nothing(self, two_cliques):
        published = []
        service = ConnectivityService(
            two_cliques, recompress_every=1_000_000, on_epoch=published.append
        )
        server = ConnectivityServer(service)
        insert = _request("update", [0], [4])
        gone = _request("refresh")
        assert gone.future.cancel()
        server._run_batch([insert, gone])
        assert insert.future.result(0) == 0
        assert gone.future.cancelled()
        assert service.epoch == 0
        assert service.metrics.counters_snapshot().get("serve_epochs", 0) == 0
        assert published == []
        assert not service.same_component(0, 4)
        # The edge stays pending: a refresh nobody cancelled publishes it.
        kept = _request("refresh")
        server._run_batch([kept])
        assert kept.future.result(0) == 1
        assert service.epoch == 1
        assert service.metrics.counters_snapshot()["serve_epochs"] == 1
        assert [s.epoch for s in published] == [1]
        assert service.same_component(0, 4)

    def test_bad_insert_retried_alone_before_any_change(self, two_cliques):
        service = ConnectivityService(two_cliques, recompress_every=4)
        good = _request("update", [0, 1], [4, 5])
        bad = _request("update", [0, 99], [4, 5])
        tail = _request("update", [2, 3], [6, 7])
        query = _request("same", [0], [4])
        ConnectivityServer(service)._run_batch([good, bad, tail, query])
        # Counted with the bad insert, the segment ended early at it;
        # alone, the tail insert is the one that publishes.
        assert isinstance(bad.future.exception(0), ConfigurationError)
        assert [good.future.result(0), tail.future.result(0)] == [0, 1]
        assert query.future.result(0).tolist() == [True]
        assert service.inserted_edges()[0].tolist() == [0, 1, 2, 3]
        assert service.metrics.counters_snapshot()["serve_updates"] == 2


class TestFlowControl:
    def test_backpressure_nonblocking(self, service):
        _stall(service, 0.3)
        with ConnectivityServer(service, max_queue=2) as server:
            server.submit_sizes(np.array([0]))  # stalls the loop
            time.sleep(0.05)  # let the worker pick it up and block
            accepted, rejected = 0, 0
            for _ in range(10):
                try:
                    server.submit_sizes(np.array([1]), block=False)
                    accepted += 1
                except BackpressureError:
                    rejected += 1
            assert rejected > 0
            assert accepted <= 2
        assert service.metrics.counters_snapshot()["serve_rejected"] == rejected

    def test_submit_before_start_rejected(self, service):
        server = ConnectivityServer(service)
        with pytest.raises(ServerClosedError):
            server.submit_same(np.array([0]), np.array([1]))

    def test_stop_drains_accepted_requests(self, service):
        server = ConnectivityServer(service).start()
        futures = [
            server.submit_same(np.array([0]), np.array([i % 8]))
            for i in range(50)
        ]
        server.stop()
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)

    def test_submit_after_stop_rejected(self, service):
        server = ConnectivityServer(service).start()
        server.stop()
        with pytest.raises(ServerClosedError):
            server.submit_refresh()
        with pytest.raises(ServerClosedError):
            server.start()  # a stopped server does not restart

    def test_stop_idempotent(self, service, tmp_path):
        ledger_path = tmp_path / "ledger.jsonl"
        server = ConnectivityServer(service, record=str(ledger_path)).start()
        server.same_component(0, 1)
        first = server.stop()
        assert first is not None
        assert server.stop() is None  # no duplicate ledger record
        assert len(RunLedger(ledger_path).records()) == 1

    def test_rejects_bad_config(self, service):
        with pytest.raises(ConfigurationError):
            ConnectivityServer(service, max_batch=0)
        with pytest.raises(ConfigurationError):
            ConnectivityServer(service, max_queue=0)


class TestTelemetry:
    def test_latency_and_batch_histograms(self, service):
        with ConnectivityServer(service) as server:
            for _ in range(5):
                server.same_component(0, 1)
            for u, v in ((0, 4), (1, 5)):
                server.submit_update(np.array([u]), np.array([v]))
                server.submit_refresh().result(5)
        summaries = service.metrics.histogram_summaries()
        counters = service.metrics.counters_snapshot()
        assert summaries["serve_latency_us"]["count"] == 9
        assert summaries["serve_batch_size"]["count"] >= 1
        # Queue wait per request, service time per batch, one per publish.
        assert summaries["serve_queue_wait_us"]["count"] == 9
        assert (
            summaries["serve_service_us"]["count"] == counters["serve_batches"]
        )
        assert summaries["serve_publish_us"]["count"] == 2
        assert counters["serve_epochs"] == 2

    def test_trace_spans_per_batch(self, service):
        server = ConnectivityServer(service, trace=True).start()
        server.same_component(0, 1)
        server.submit_update(np.array([0]), np.array([4]))
        server.submit_refresh().result(5)
        server.stop()
        trace = server.tracer.finish()
        batch_spans = [s for s in trace.spans if s.label == "batch"]
        assert batch_spans
        assert all("epoch" in s.attrs for s in batch_spans)

    def test_trace_span_cap(self, service):
        server = ConnectivityServer(
            service, trace=True, max_trace_spans=2
        ).start()
        for _ in range(6):
            server.same_component(0, 1)
        server.stop()
        trace = server.tracer.finish()
        assert len([s for s in trace.spans if s.label == "batch"]) <= 2
        counters = service.metrics.counters_snapshot()
        assert counters["serve_trace_spans_dropped"] >= 1


class TestLedgerIntegration:
    def test_session_record_shape(self, service):
        server = ConnectivityServer(service).start()
        server.same_component(0, 1)
        server.submit_update(np.array([0]), np.array([4]))
        server.submit_refresh().result(5)
        server.stop()
        record = server.session_record(workload="unit-test")
        assert record.kind == "serve"
        assert record.algorithm == "afforest"
        assert record.graph["vertices"] == 8
        assert record.seconds > 0
        assert record.counters["serve_requests"] == 3
        assert record.meta["epochs"] == 1
        assert record.meta["workload"] == "unit-test"

    def test_sessions_append_to_ledger(self, two_cliques, tmp_path):
        ledger_path = tmp_path / "serve.jsonl"
        for _ in range(2):
            svc = ConnectivityService(two_cliques)
            with ConnectivityServer(svc, record=str(ledger_path)) as server:
                server.same_component(0, 1)
        records = RunLedger(ledger_path).records()
        assert len(records) == 2
        assert all(r.kind == "serve" for r in records)
        assert records[0].run_id != records[1].run_id

    def test_run_id_surfaces_after_stop(self, service, tmp_path):
        ledger_path = tmp_path / "serve.jsonl"
        server = ConnectivityServer(service, record=str(ledger_path)).start()
        server.same_component(0, 1)
        record = server.stop()
        assert server.run_id == record.run_id
        assert RunLedger(ledger_path).resolve(record.run_id).kind == "serve"


class TestEndToEndConsistency:
    def test_mixed_stream_bit_identical_to_resolve(self):
        graph = uniform_random_graph(400, num_edges=500, seed=3)
        captured = []
        svc = ConnectivityService(
            graph,
            recompress_every=128,
            on_epoch=lambda s: captured.append((s.edges_applied, s.labels)),
        )
        captured.append((0, svc.snapshot.labels))
        rng = np.random.default_rng(4)
        with ConnectivityServer(svc, max_batch=16) as server:
            for _ in range(30):
                server.submit_same(
                    rng.integers(0, 400, 8), rng.integers(0, 400, 8)
                )
                server.submit_update(
                    rng.integers(0, 400, 20), rng.integers(0, 400, 20)
                )
            server.submit_refresh().result(10)
        assert len(captured) >= 3
        for applied, labels in captured:
            assert np.array_equal(labels, svc.batch_resolve(applied))
