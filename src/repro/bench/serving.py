"""Serving sessions for ``repro serve``.

:func:`drive_session` stands up a :class:`~repro.serve.ConnectivityService`
+ :class:`~repro.serve.ConnectivityServer` on one graph, drives a seeded
mixed stream of pair queries, size queries, and edge-insertion bursts
(:func:`build_workload`) through the request queue, and reports
**throughput** (requests/s) and **client-observed latency**
(p50/p95/p99, measured from submission to future completion, so
queueing and coalescing are included).

Correctness is checked by the epoch oracle (:func:`verify_epochs`):
every published epoch's label array must be **bit-identical** to a
from-scratch batch re-solve of the base graph plus the stream prefix
absorbed at that epoch (``ConnectivityService.batch_resolve``);
``repro serve`` exits 1 on any mismatch.

A session record carries ``median_seconds`` and the session counters
keyed by (dataset, algorithm, backend), so two ``repro serve --output``
reports diff through ``repro obs diff``.  With ``ledger`` set, one
``kind="serve"`` :class:`~repro.obs.ledger.RunRecord` is appended per
session.
"""

from __future__ import annotations

import time

import numpy as np

from repro.graph.csr import CSRGraph
from repro.serve import ConnectivityServer, ConnectivityService


def _skewed_vertices(
    rng: np.random.Generator, n: int, size: int, *, skew: float = 2.0
) -> np.ndarray:
    """Popularity-skewed vertex sample (hot keys get queried more).

    ``u**skew`` concentrates mass near 0 — low-id vertices act as the
    hot set, the realistic shape for a serving workload — while staying
    cheap and bounded (unlike e.g. an unbounded Zipf draw).
    """
    return np.minimum(
        (n * rng.random(size) ** skew).astype(np.int64), n - 1
    )


def build_workload(
    rng: np.random.Generator,
    num_vertices: int,
    requests: int,
    *,
    query_frac: float = 0.8,
    size_frac: float = 0.1,
    pair_batch: int = 32,
    update_edges: int = 32,
) -> list[tuple]:
    """A seeded mixed request stream: ``(kind, *arrays)`` tuples.

    ``query_frac`` of requests are same-component pair batches,
    ``size_frac`` are component-size batches, and the remainder are
    edge-insertion bursts of ``update_edges`` random edges.
    """
    ops: list[tuple] = []
    for _ in range(requests):
        r = rng.random()
        if r < query_frac:
            us = _skewed_vertices(rng, num_vertices, pair_batch)
            vs = rng.integers(0, num_vertices, size=pair_batch)
            ops.append(("same", us, vs))
        elif r < query_frac + size_frac:
            ops.append(("sizes", _skewed_vertices(rng, num_vertices, pair_batch)))
        else:
            src = rng.integers(0, num_vertices, size=update_edges)
            dst = rng.integers(0, num_vertices, size=update_edges)
            ops.append(("update", src, dst))
    return ops


def verify_epochs(
    service: ConnectivityService,
    epochs: list[tuple[int, int, np.ndarray]],
) -> tuple[bool, int]:
    """Check each captured epoch against a from-scratch batch re-solve.

    ``epochs`` holds ``(epoch, edges_applied, labels)`` triples captured
    by the service's ``on_epoch`` hook (plus the epoch-0 baseline).  The
    invariant is exact equality — both paths label every component by
    its minimum vertex id — so ``np.array_equal`` with no
    canonicalisation.  Returns ``(all_matched, epochs_checked)``.
    """
    ok = True
    for _epoch, applied, labels in epochs:
        resolved = service.batch_resolve(applied)
        ok = ok and bool(np.array_equal(labels, resolved))
    return ok, len(epochs)


def drive_session(
    graph: CSRGraph,
    dataset: str,
    *,
    algorithm: str = "afforest",
    backend: str | None = None,
    workers: int | None = None,
    requests: int = 400,
    query_frac: float = 0.8,
    size_frac: float = 0.1,
    pair_batch: int = 32,
    update_edges: int = 32,
    recompress_every: int = 1024,
    max_batch: int = 128,
    max_queue: int = 8192,
    seed: int = 17,
    oracle: bool = True,
    ledger: str | None = None,
    trace: bool = False,
) -> tuple[dict, ConnectivityService]:
    """One full serving session on ``graph``; returns (record, service).

    Solves the graph, starts the server, pushes the whole seeded
    workload through the queue (letting the worker loop batch and
    coalesce), closes with an explicit refresh so the final epoch
    captures every absorbed edge, then gathers latency percentiles,
    throughput, counters, and — with ``oracle`` — the per-epoch
    bit-identity verdict.
    """
    rng = np.random.default_rng(seed)
    epochs: list[tuple[int, int, np.ndarray]] = []
    service = ConnectivityService(
        graph,
        algorithm=algorithm,
        backend=backend,
        workers=workers,
        recompress_every=recompress_every,
        dataset=dataset,
        on_epoch=lambda s: epochs.append((s.epoch, s.edges_applied, s.labels)),
    )
    # The epoch-0 baseline participates in the oracle check too.
    base = service.snapshot
    epochs.append((base.epoch, base.edges_applied, base.labels))
    ops = build_workload(
        rng,
        service.num_vertices,
        requests,
        query_frac=query_frac,
        size_frac=size_frac,
        pair_batch=pair_batch,
        update_edges=update_edges,
    )
    latencies: list[float] = []

    def _measure(fut, t0: float) -> None:
        # Runs in the worker thread right as the future resolves;
        # list.append is atomic under the GIL.
        latencies.append(time.perf_counter() - t0)

    server = ConnectivityServer(
        service,
        max_batch=max_batch,
        max_queue=max_queue,
        trace=trace,
        record=ledger if ledger else False,
    )
    t_start = time.perf_counter()
    with server:
        for op in ops:
            t0 = time.perf_counter()
            if op[0] == "same":
                fut = server.submit_same(op[1], op[2])
            elif op[0] == "sizes":
                fut = server.submit_sizes(op[1])
            else:
                fut = server.submit_update(op[1], op[2])
            fut.add_done_callback(lambda f, t0=t0: _measure(f, t0))
        # Publish whatever is pending so the last epoch covers the full
        # stream (and lands in the oracle set).
        server.submit_refresh()
    t_wall = time.perf_counter() - t_start
    submitted = len(ops) + 1
    lat = np.asarray(latencies, dtype=np.float64)
    p50, p95, p99 = (
        np.percentile(lat, [50.0, 95.0, 99.0]) if lat.size else (0.0, 0.0, 0.0)
    )
    counters = service.metrics.counters_snapshot()
    record: dict = {
        "dataset": dataset,
        "algorithm": algorithm,
        "backend": service.backend_kind,
        "requests": submitted,
        "median_seconds": float(p50),
        "p50_ms": float(p50 * 1e3),
        "p95_ms": float(p95 * 1e3),
        "p99_ms": float(p99 * 1e3),
        "throughput_rps": submitted / t_wall if t_wall > 0 else 0.0,
        "session_seconds": t_wall,
        "epochs": service.epoch,
        "num_components": service.num_components,
        "edges_inserted": counters.get("serve_edges_inserted", 0),
        "coalesced": counters.get("serve_coalesced", 0),
        "batches": counters.get("serve_batches", 0),
        "counters": dict(counters),
    }
    if server.run_id is not None:
        record["run_id"] = server.run_id
    if oracle:
        ok, checked = verify_epochs(service, epochs)
        record["matches_oracle"] = ok
        record["oracle_epochs"] = checked
    return record, service
