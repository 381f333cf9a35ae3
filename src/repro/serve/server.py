"""The request layer: a worker loop with batching and backpressure.

:class:`ConnectivityServer` wraps a
:class:`~repro.serve.service.ConnectivityService` in a single-consumer
request queue drained by a worker thread.  The loop's job is *request
coalescing*: it drains up to ``max_batch`` pending requests per wakeup
and runs them by **epoch segment**.  A segment ends at the insert whose
edges make the service publish, or at a refresh.  No other insert
publishes, so every query in a segment reads the same epoch snapshot,
whichever inserts it arrived between.  A segment therefore runs as one
vectorized gather per query kind — a thousand ``same-component``
requests become one fancy-indexing operation — then one ``add_edges``
over all its inserts in arrival order (``link`` is an order-independent
edge insertion, Theorem 1), then its refresh.  Every future resolves as
it would one request at a time: the same answers, the old epoch for
every insert but the one that publishes, and the same edges behind
each published epoch.

Flow control is explicit: the queue has a fixed depth (``max_queue``);
a non-blocking submit against a full queue raises
:class:`BackpressureError` (callers that prefer to wait pass
``block=True`` and are throttled by the queue itself).  Shutdown is
graceful: :meth:`stop` rejects new submissions, lets the loop drain
everything already accepted, then joins the thread — no accepted
request is ever dropped.  A client may withdraw a queued insert or
refresh with ``future.cancel()``: the worker claims each one's future
before it runs the batch and skips the ones already cancelled, so a
cancelled insert's edges are never linked and a cancelled refresh
publishes no epoch.  Once claimed, neither can be cancelled any more.

A malformed request fails alone.  ``submit_*`` rejects a payload that
is not 1-D, whose two arrays differ in length, or whose non-empty array
is not of integer dtype, with :class:`~repro.errors.ConfigurationError`
before it is queued (shape and dtype checks only, nothing that reads
the data).  The worker repeats these checks on a request built without
``submit_*`` and runs one that fails them as a segment of its own,
never joined to its neighbours.  When a shared call still raises (say,
on an out-of-range vertex) before the service changed anything, its
requests are run one at a time so only the bad request's future carries
the error.  A shared insert that fails after the service changed state
(an ``on_epoch`` callback raising during the publish) is not retried:
the publishing request carries the error.

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
from typing import Any, Callable

import numpy as np

from repro.errors import ConfigurationError, ReproError
from repro.nputil import require_integer_ids
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

#: payload arrays of each request kind.
_ARITY = {"same": 2, "sizes": 1, "update": 2, "refresh": 0}


@dataclass
class _Request:
    kind: str
    payload: tuple[np.ndarray, ...] = ()
    future: Future = field(default_factory=Future)
    t_submit: float = 0.0
    checked: bool = False  # submit_* accepted the payload


_SHUTDOWN = _Request(kind="__shutdown__")


def _resolve(future: Future, value: Any) -> None:
    """Set ``future``'s result unless its client cancelled it first."""
    try:
        future.set_result(value)
    except InvalidStateError:
        pass


def _vectors(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """A request payload: 1-D integer arrays of one length.

    Reads shapes and dtypes only, never the data.
    """
    payload = tuple(np.asarray(a) for a in arrays)
    for a in payload:
        if a.ndim != 1 or a.shape != payload[0].shape:
            shapes = ", ".join(str(a.shape) for a in payload)
            raise ConfigurationError(
                f"request arrays must be 1-D and of one length, got {shapes}"
            )
        require_integer_ids(a)
    return payload


def _shareable(req: _Request) -> bool:
    """Whether ``req`` may share a call: its payload passes submission.

    ``submit_*`` marks the requests it checked.  One built without it
    reaches the worker unchecked, and joining, say, a ``bool`` payload
    to integer ones would cast it to vertex ids that the service
    rejects when it comes alone.
    """
    if req.checked:
        return True
    if len(req.payload) != _ARITY.get(req.kind):
        return False
    try:
        _vectors(*req.payload)
    except ConfigurationError:
        return False
    return True


def _joined(arrays: tuple[np.ndarray, ...]) -> np.ndarray:
    """``arrays`` as one vector; a lone array passes through uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


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
        req = _Request(kind, payload, t_submit=time.perf_counter(), checked=True)
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
        # Claim every insert and refresh before segmenting: one its
        # client cancelled while queued is dropped, so an insert is never
        # linked, counted, or counted toward a publish, and a refresh
        # publishes nothing.  A cancelled query is only left unanswered
        # (``_resolve``).
        claimed = ("update", "refresh")
        todo = [
            r
            for r in batch
            if r.kind not in claimed or r.future.set_running_or_notify_cancel()
        ]
        calls = 0
        start = 0
        while start < len(todo):
            segment = self._segment(todo, start)
            calls += self._run_segment(segment)
            start += len(segment)
        if self.tracer.enabled and self._trace_spans < self.max_trace_spans:
            self._trace_spans += 1
            self.tracer.add_span(
                "batch",
                t0,
                time.perf_counter(),
                size=len(batch),
                runs=calls,
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

    def _segment(self, batch: list[_Request], start: int) -> list[_Request]:
        """The epoch segment of ``batch`` that begins at ``start``.

        It ends at the insert whose edges make the service publish, or
        at a refresh, so no insert before its last one publishes.  An
        insert's edges count before the service has checked them; a bad
        insert can only end a segment early.  A request that may not
        share a call is a segment of its own.
        """
        due = self.service.edges_to_publish
        for end in range(start, len(batch)):
            req = batch[end]
            if not _shareable(req):
                return batch[start : max(end, start + 1)]
            if req.kind == "refresh":
                return batch[start : end + 1]
            if req.kind == "update" and due is not None:
                due -= req.payload[0].shape[0]
                if due <= 0:
                    return batch[start : end + 1]
        return batch[start:]

    def _run_segment(self, segment: list[_Request]) -> int:
        """Run one epoch segment; returns the service calls made.

        Its pair queries and its size queries each take one gather
        against the current snapshot, its inserts one ``add_edges``,
        and a refresh that ends it runs last.
        """
        service = self.service
        calls = self._answer(
            [r for r in segment if r.kind == "same"],
            service.same_component_batch,
        )
        calls += self._answer(
            [r for r in segment if r.kind == "sizes"], service.component_sizes
        )
        calls += self._insert([r for r in segment if r.kind == "update"])
        last = segment[-1]
        if last.kind == "refresh":
            calls += 1
            try:
                epoch = service.refresh()
            except Exception as exc:
                self._fail(last, exc)
            else:
                _resolve(last.future, epoch)
        elif last.kind not in _ARITY:  # pragma: no cover - submit owns kinds
            self._fail(last, ReproError(f"unknown request kind {last.kind!r}"))
        return calls

    def _answer(self, run: list[_Request], query: Callable[..., np.ndarray]) -> int:
        """Answer ``run``'s queries with one call; returns the calls made."""
        if not run:
            return 0
        try:
            result = query(*map(_joined, zip(*(r.payload for r in run))))
        except Exception as exc:
            if len(run) == 1:
                self._fail(run[0], exc)
                return 1
            # One bad request must not fail its neighbours: answer the
            # run one request at a time.
            return 1 + sum(self._answer([r], query) for r in run)
        if len(run) == 1:
            _resolve(run[0].future, result)
            return 1
        self.metrics.counter("serve_coalesced").inc(len(run))
        offset = 0
        for r in run:
            width = r.payload[0].shape[0]
            _resolve(r.future, result[offset : offset + width])
            offset += width
        return 1

    def _insert(self, run: list[_Request]) -> int:
        """Absorb ``run``'s inserts with one call; returns the calls made.

        Only a segment's last insert can publish, so every other one
        resolves to the epoch before the call.  A call that raised
        before the service changed anything is retried one request at a
        time.  One that raised after (an ``on_epoch`` callback failing
        in the publish) is not: the last request, the one that
        published, carries its error.
        """
        if not run:
            return 0
        service = self.service
        before, pending = service.epoch, service.pending_updates
        error: Exception | None = None
        try:
            epoch = service.add_edges(*map(_joined, zip(*(r.payload for r in run))))
        except Exception as exc:
            changed = service.epoch != before or service.pending_updates != pending
            if len(run) > 1 and not changed:
                return 1 + sum(self._insert([r]) for r in run)
            error = exc
        if len(run) > 1:
            # The service counts one update per call; these are requests.
            self.metrics.counter("serve_updates").inc(len(run) - 1)
            self.metrics.counter("serve_coalesced").inc(len(run))
        for r in run[:-1]:
            _resolve(r.future, before)
        if error is None:
            _resolve(run[-1].future, epoch)
        else:
            self._fail(run[-1], error)
        return 1

    def _fail(self, req: _Request, exc: Exception) -> None:
        self.metrics.counter("serve_errors").inc()
        if not req.future.done():
            req.future.set_exception(exc)

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
