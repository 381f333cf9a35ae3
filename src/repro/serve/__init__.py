"""Connectivity-as-a-service: the long-lived query/update serving layer.

The batch engine answers "what are the components of this graph?" once;
this package answers "are these two vertices connected *right now*?"
millions of times, while the graph keeps growing.  Two pieces:

- :class:`ConnectivityService` (:mod:`repro.serve.service`) — solves a
  graph once via :func:`repro.engine.run`, keeps a fully compressed
  label array and a component-size census hot for O(1) reads, absorbs
  edge-insertion streams through incremental link/compress, and
  publishes immutable epoch :class:`Snapshot` views so readers never
  observe torn labels;
- :class:`ConnectivityServer` (:mod:`repro.serve.server`) — the request
  layer: a worker loop that runs each drained batch by epoch segment
  (one vectorized gather per query kind, one ``add_edges`` for the
  segment's inserts), bounds the queue for backpressure
  (:class:`BackpressureError`), shuts down gracefully, and emits
  telemetry (per-batch spans, latency histograms, Prometheus text,
  durable ``kind="serve"`` ledger records).

Driven by ``repro serve`` on the CLI (throughput + p50/p95/p99 latency,
with an oracle asserting every published epoch is bit-identical to a
from-scratch batch re-solve) and measured at scale by the ``serve-mixed``
workload of ``bench/e2e.py``.  See ``docs/serving.md``.
"""

from __future__ import annotations

from repro.serve.server import (
    BackpressureError,
    ConnectivityServer,
    ServerClosedError,
)
from repro.serve.service import ConnectivityService, Snapshot

__all__ = [
    "BackpressureError",
    "ConnectivityServer",
    "ConnectivityService",
    "ServerClosedError",
    "Snapshot",
]
