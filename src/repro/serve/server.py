"""The request layer: a worker loop with batching and backpressure.

:class:`ConnectivityServer` wraps a
:class:`~repro.serve.service.ConnectivityService` in a single-consumer
request queue drained by a worker thread.  The loop's job is *request
coalescing*: it drains up to ``max_batch`` pending requests per wakeup
and answers each contiguous run of same-kind queries with **one**
vectorized gather against the epoch snapshot — a thousand
``same-component`` requests become one fancy-indexing operation —
while updates stay strictly ordered within the stream.

Flow control is explicit: the queue has a fixed depth (``max_queue``);
a non-blocking submit against a full queue raises
:class:`BackpressureError` (callers that prefer to wait pass
``block=True`` and are throttled by the queue itself).  Shutdown is
graceful: :meth:`stop` rejects new submissions, lets the loop drain
everything already accepted, then joins the thread — no accepted
request is ever dropped.

A malformed request fails alone.  ``submit_*`` rejects a payload that
is not 1-D, or whose two arrays differ in length, with
:class:`~repro.errors.ConfigurationError` before it is queued (shape
checks only, nothing that reads the data); when a coalesced run's
vectorized call still raises (say, on an out-of-range vertex), the run
is answered one request at a time so only the bad request's future
carries the error.

Telemetry rides on the service's shared
:class:`~repro.obs.metrics.MetricsRegistry` (latency, queue-wait,
service-time and batch-size histograms, queue-depth gauge,
request/batch/coalesce counters), each
drained batch is recorded as an attributed span in an optional
:class:`~repro.obs.Tracer`, and :meth:`session_record` renders the
whole session as a durable ``kind="serve"``
:class:`~repro.obs.ledger.RunRecord` for the run ledger.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.obs.ledger import RunLedger, RunRecord, env_snapshot, resolve_ledger
from repro.obs.trace import Tracer
from repro.serve.service import ConnectivityService

__all__ = ["BackpressureError", "ConnectivityServer", "ServerClosedError"]


class BackpressureError(ReproError):
    """The request queue is full and the caller asked not to wait."""


class ServerClosedError(ReproError):
    """The server is stopped (or stopping) and rejects new requests."""


#: histogram bucket bounds for request latency, in microseconds.
_LATENCY_BUCKETS = tuple(float(2**k) for k in range(1, 24))

#: kinds whose requests coalesce into one vectorized call per run.
_QUERY_KINDS = frozenset({"same", "sizes"})


@dataclass
class _Request:
    kind: str
    payload: tuple[np.ndarray, ...] = ()
    future: Future = field(default_factory=Future)
    t_submit: float = 0.0


_SHUTDOWN = _Request(kind="__shutdown__")


def _resolve(future: Future, value: Any) -> None:
    """Set ``future``'s result unless its client cancelled it first."""
    try:
        future.set_result(value)
    except InvalidStateError:
        pass


def _vectors(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """A request payload: 1-D arrays of one length (shape checks only)."""
    payload = tuple(np.asarray(a) for a in arrays)
    if any(a.ndim != 1 or a.shape != payload[0].shape for a in payload):
        raise ConfigurationError(
            "request arrays must be 1-D and of equal length, got shapes "
            + ", ".join(str(a.shape) for a in payload)
        )
    return payload


class ConnectivityServer:
    """Batched request front-end over one :class:`ConnectivityService`.

    Parameters
    ----------
    service:
        The solved state to serve (queries *and* the update stream).
    max_batch:
        Requests drained per loop wakeup — the coalescing window.
    max_queue:
        Queue depth bound; the backpressure limit.
    trace:
        ``True`` (or a ready :class:`~repro.obs.Tracer`) records one
        attributed span per drained batch, capped at
        ``max_trace_spans`` to bound a long session's memory.
    record:
        Ledger destination for the session record written by
        :meth:`stop` — same forms as ``engine.run(record=...)``
        (``True``/path/:class:`~repro.obs.ledger.RunLedger`; default
        ``None`` consults ``REPRO_LEDGER``).
    """

    def __init__(
        self,
        service: ConnectivityService,
        *,
        max_batch: int = 256,
        max_queue: int = 1024,
        trace: Tracer | bool | None = None,
        record: bool | str | RunLedger | None = None,
        max_trace_spans: int = 4096,
    ) -> None:
        if max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ConfigurationError(f"max_queue must be >= 1, got {max_queue}")
        self.service = service
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.metrics = service.metrics
        # The tracer shares the service's registry, so a finished trace
        # carries the session's counters/histograms next to its spans.
        self.tracer = (
            trace
            if isinstance(trace, Tracer)
            else Tracer(bool(trace), metrics=service.metrics)
        )
        self.max_trace_spans = max_trace_spans
        self._trace_spans = 0
        self._ledger = resolve_ledger(record)
        self._queue: queue.Queue[_Request] = queue.Queue(maxsize=max_queue)
        self._thread: threading.Thread | None = None
        self._closed = False
        self._started_at = 0.0
        self._stopped_at = 0.0
        self.run_id: str | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "ConnectivityServer":
        """Start the worker loop (idempotent while running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        if self._closed:
            raise ServerClosedError("server was stopped; build a new one")
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout: float | None = None) -> RunRecord | None:
        """Drain accepted requests, stop the loop, record the session.

        New submissions are rejected from the moment ``stop`` is
        called; everything accepted before it completes normally.
        Returns the appended ledger record (None when recording is
        off).
        """
        if self._thread is None or self._stopped_at:
            return None
        if not self._closed:
            self._closed = True
            # The sentinel queues *behind* every accepted request, so
            # popping it proves the drain is complete.
            self._queue.put(_SHUTDOWN)
        self._thread.join(timeout)
        self._stopped_at = time.perf_counter()
        record = None
        if self._ledger is not None:
            record = self.session_record()
            self._ledger.append(record)
            self.run_id = record.run_id
        return record

    def __enter__(self) -> "ConnectivityServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit_same(
        self, us: np.ndarray, vs: np.ndarray, *, block: bool = True
    ) -> Future:
        """Queue a same-component pair batch; resolves to a bool array."""
        return self._submit("same", _vectors(us, vs), block)

    def submit_sizes(self, vs: np.ndarray, *, block: bool = True) -> Future:
        """Queue a component-size batch; resolves to an int array."""
        return self._submit("sizes", _vectors(vs), block)

    def submit_update(
        self, src: np.ndarray, dst: np.ndarray, *, block: bool = True
    ) -> Future:
        """Queue an edge-insertion batch; resolves to the current epoch."""
        return self._submit("update", _vectors(src, dst), block)

    def submit_refresh(self, *, block: bool = True) -> Future:
        """Queue an explicit epoch publish; resolves to the new epoch."""
        return self._submit("refresh", (), block)

    def same_component(self, u: int, v: int) -> bool:
        """Synchronous point query through the full request path."""
        fut = self.submit_same(
            np.asarray([u], dtype=np.int64), np.asarray([v], dtype=np.int64)
        )
        return bool(fut.result()[0])

    def component_size(self, v: int) -> int:
        """Synchronous size query through the full request path."""
        fut = self.submit_sizes(np.asarray([v], dtype=np.int64))
        return int(fut.result()[0])

    def _submit(
        self, kind: str, payload: tuple[np.ndarray, ...], block: bool
    ) -> Future:
        if self._closed or self._thread is None:
            self.metrics.counter("serve_rejected").inc()
            raise ServerClosedError(
                "server is not running; start() it before submitting"
            )
        req = _Request(kind=kind, payload=payload, t_submit=time.perf_counter())
        try:
            self._queue.put(req, block=block)
        except queue.Full:
            self.metrics.counter("serve_rejected").inc()
            raise BackpressureError(
                f"request queue at capacity ({self.max_queue}); retry later"
            ) from None
        self.metrics.counter("serve_requests").inc()
        return req.future

    # ------------------------------------------------------------------ #
    # the worker loop
    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        while True:
            req = self._queue.get()
            if req is _SHUTDOWN:
                self._fail_stragglers()
                return
            batch = [req]
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    # Re-queue so the outer loop sees it after this
                    # batch completes; nothing can enqueue behind it.
                    self._queue.put(nxt)
                    break
                batch.append(nxt)
            self.metrics.gauge("serve_queue_depth").set(self._queue.qsize())
            self._run_batch(batch)

    def _fail_stragglers(self) -> None:
        """Resolve requests that raced past the closed check at stop().

        ``_submit`` checks ``_closed`` before enqueueing, so a request
        can land behind the sentinel only in the narrow window between
        that check and the flag flipping; failing its future here keeps
        the no-dangling-futures guarantee airtight.
        """
        while True:
            try:
                req = self._queue.get_nowait()
            except queue.Empty:
                return
            if req is not _SHUTDOWN and not req.future.done():
                req.future.set_exception(
                    ServerClosedError("server stopped before execution")
                )

    def _run_batch(self, batch: list[_Request]) -> None:
        t0 = time.perf_counter()  # the batch has just been dequeued
        self.metrics.counter("serve_batches").inc()
        self.metrics.histogram("serve_batch_size").observe(len(batch))
        # Contiguous same-kind query runs collapse into one vectorized
        # call; updates and refreshes execute in stream order between
        # them, so the observable sequence matches arrival order.
        runs: list[list[_Request]] = []
        for req in batch:
            if (
                runs
                and req.kind in _QUERY_KINDS
                and runs[-1][-1].kind == req.kind
            ):
                runs[-1].append(req)
            else:
                runs.append([req])
        for run in runs:
            self._execute_run(run)
        if self.tracer.enabled and self._trace_spans < self.max_trace_spans:
            self._trace_spans += 1
            self.tracer.add_span(
                "batch",
                t0,
                time.perf_counter(),
                size=len(batch),
                runs=len(runs),
                epoch=self.service.epoch,
            )
        elif self.tracer.enabled:
            self.metrics.counter("serve_trace_spans_dropped").inc()
        done = time.perf_counter()
        submitted = np.fromiter((r.t_submit for r in batch), float, len(batch))
        metrics = self.metrics
        metrics.histogram("serve_latency_us", _LATENCY_BUCKETS).observe_many(
            (done - submitted) * 1e6
        )
        metrics.histogram("serve_queue_wait_us", _LATENCY_BUCKETS).observe_many(
            (t0 - submitted) * 1e6
        )
        metrics.histogram("serve_service_us", _LATENCY_BUCKETS).observe(
            (done - t0) * 1e6
        )

    def _execute_run(self, run: list[_Request]) -> None:
        kind = run[0].kind
        try:
            if kind == "same":
                us = np.concatenate([r.payload[0] for r in run])
                vs = np.concatenate([r.payload[1] for r in run])
                result = self.service.same_component_batch(us, vs)
            elif kind == "sizes":
                vs = np.concatenate([r.payload[0] for r in run])
                result = self.service.component_sizes(vs)
            elif kind == "update":
                result = self.service.add_edges(*run[0].payload)
            elif kind == "refresh":
                result = self.service.refresh()
            else:  # pragma: no cover - submission layer owns the kinds
                raise ReproError(f"unknown request kind {kind!r}")
        except Exception as exc:
            if len(run) > 1:
                # One bad request must not fail its neighbours: answer
                # the run one request at a time.
                for r in run:
                    self._execute_run([r])
                return
            self.metrics.counter("serve_errors").inc()
            if not run[0].future.done():
                run[0].future.set_exception(exc)
            return
        if kind not in _QUERY_KINDS:  # updates and refreshes run singly
            _resolve(run[0].future, result)
            return
        if len(run) > 1:
            self.metrics.counter("serve_coalesced").inc(len(run))
        offset = 0
        for r in run:
            width = r.payload[0].shape[0]
            _resolve(r.future, result[offset : offset + width])
            offset += width

    # ------------------------------------------------------------------ #
    # session accounting
    # ------------------------------------------------------------------ #

    def session_seconds(self) -> float:
        """Wall seconds the loop has been (or was) serving."""
        if not self._started_at:
            return 0.0
        end = self._stopped_at or time.perf_counter()
        return end - self._started_at

    def session_record(self, **meta: Any) -> RunRecord:
        """The session as a durable ``kind="serve"`` ledger record.

        Self-contained like every ledger entry: provenance (algorithm,
        backend, graph fingerprint), session wall seconds, the full
        counter/gauge/histogram snapshot of the shared registry, and
        free-form ``meta`` from the caller (the benchmark adds its
        workload mix here).
        """
        service = self.service
        counters = self.metrics.counters_snapshot()
        merged_meta: dict[str, Any] = {
            "requests": counters.get("serve_requests", 0),
            "epochs": service.epoch,
            "max_batch": self.max_batch,
            "max_queue": self.max_queue,
        }
        if service.dataset:
            merged_meta["dataset"] = service.dataset
        merged_meta.update(meta)
        now = time.time()
        record = RunRecord(
            run_id=f"s{int(now * 1000):012x}-{uuid.uuid4().hex[:6]}",
            timestamp=now,
            kind="serve",
            algorithm=service.algorithm,
            plan=service.plan,
            backend=service.backend_kind,
            graph=dict(service.fingerprint),
            seconds=self.session_seconds(),
            counters=counters,
            gauges=self.metrics.gauges_snapshot(),
            histograms=self.metrics.histogram_summaries(),
            num_components=service.num_components,
            env=env_snapshot(),
            meta=merged_meta,
        )
        return record
