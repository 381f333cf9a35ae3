"""The connectivity service: solve once, answer forever, absorb streams.

A :class:`ConnectivityService` is the long-lived core of the serving
layer.  It solves a graph exactly once through :func:`repro.engine.run`
(any algorithm, any backend), then keeps two things hot:

- a fully compressed **label array** (``labels[v]`` is the minimum
  vertex id of ``v``'s component — the same canonical labeling every
  engine finish produces), and
- a **component-size census** (``sizes[root]`` = component population),

so ``same_component(u, v)`` and ``component_size(v)`` are O(1) array
gathers, and the batch forms are one vectorized gather for the whole
request batch.

Edge insertions stream into an
:class:`~repro.core.incremental.IncrementalConnectivity` seeded from the
solved labels (Afforest's ``link`` is an order-independent edge
insertion, Theorem 1), and a configurable **re-compression policy**
periodically flattens the parent forest and republishes the hot arrays.

Consistency is *epochal*: readers always see a complete, immutable
:class:`Snapshot` — labels, census, component count, all from the same
generation — never a half-updated parent array.  Publishing a new epoch
is a single reference swap, so a reader holding epoch ``e`` keeps a
coherent view while epoch ``e+1`` is being built.  Because both the
batch solve and the incremental path label every component by its
minimum vertex id, the labels published at each epoch are bit-identical
to a from-scratch batch re-solve of the base graph plus every edge
inserted so far — the invariant the serving benchmark's oracle gate
checks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.incremental import IncrementalConnectivity
from repro.engine import ExecutionBackend
from repro.errors import ConfigurationError
from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph
from repro.nputil import vertex_ids
from repro.obs.ledger import fingerprint_graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.promexport import render_prometheus

__all__ = ["ConnectivityService", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One epoch's immutable, self-consistent view of connectivity.

    ``labels`` and ``sizes`` are read-only arrays (writes raise), so a
    snapshot handed to a reader can never tear: every field was derived
    from the same compressed parent array, and nothing mutates after
    publication.  ``edges_applied`` counts the stream edges absorbed
    into this epoch — the oracle handle for re-solve verification.
    """

    epoch: int
    labels: np.ndarray
    sizes: np.ndarray
    num_components: int
    edges_applied: int

    @property
    def num_vertices(self) -> int:
        return int(self.labels.shape[0])

    def same_component(self, u: int, v: int) -> bool:
        """O(1): do ``u`` and ``v`` share a component in this epoch?"""
        self._check(u)
        self._check(v)
        return bool(self.labels[u] == self.labels[v])

    def component_size(self, v: int) -> int:
        """O(1): population of ``v``'s component in this epoch."""
        self._check(v)
        return int(self.sizes[self.labels[v]])

    def same_component_batch(
        self, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """One vectorized gather answering every ``(us[i], vs[i])`` pair."""
        us = self._check_batch(us)
        vs = self._check_batch(vs)
        if us.shape != vs.shape:
            raise ConfigurationError("us/vs must have equal length")
        return self.labels[us] == self.labels[vs]

    def component_sizes(self, vs: np.ndarray) -> np.ndarray:
        """One vectorized gather of component sizes for a vertex batch."""
        vs = self._check_batch(vs)
        return self.sizes[self.labels[vs]]

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise ConfigurationError(
                f"vertex {v} out of range for {self.num_vertices}-vertex"
                " universe"
            )

    def _check_batch(self, vs: np.ndarray) -> np.ndarray:
        arr = vertex_ids(vs)
        if arr.size and (
            int(arr.min()) < 0 or int(arr.max()) >= self.num_vertices
        ):
            raise ConfigurationError(
                f"vertex batch out of range for {self.num_vertices}-vertex"
                " universe"
            )
        return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class ConnectivityService:
    """A long-lived query/update connectivity engine over one graph.

    Parameters
    ----------
    graph:
        The base graph, solved once at construction.
    algorithm:
        Algorithm name for the initial solve (anything
        :func:`repro.engine.run` accepts, e.g. ``sv``).
    backend, workers:
        Execution substrate for the initial solve (kind string or a
        ready :class:`~repro.engine.ExecutionBackend`); the serving
        loop itself is pure vectorized NumPy.
    recompress_every:
        Stream edges absorbed between re-compression epochs.  ``0``
        defers publication entirely to explicit :meth:`refresh` calls.
    dataset:
        Optional human name carried into telemetry and ledger records.
    on_epoch:
        Callback invoked as ``on_epoch(snapshot)`` after each new epoch
        publishes — the hook the benchmark's oracle gate uses to verify
        bit-identity against a batch re-solve.
    metrics:
        A shared :class:`~repro.obs.metrics.MetricsRegistry`; the
        service creates an enabled one when not given (the request
        layer records into the same registry, so one Prometheus scrape
        covers the whole serving session).
    params:
        Extra keyword parameters forwarded to the initial solve.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        algorithm: str = "afforest",
        backend: ExecutionBackend | str | None = None,
        workers: int | None = None,
        recompress_every: int = 4096,
        dataset: str | None = None,
        on_epoch: Callable[[Snapshot], object] | None = None,
        metrics: MetricsRegistry | None = None,
        **params: Any,
    ) -> None:
        if recompress_every < 0:
            raise ConfigurationError(
                f"recompress_every must be >= 0, got {recompress_every}"
            )
        from repro import engine

        self.graph = graph
        self.algorithm = algorithm
        self.dataset = dataset
        self.fingerprint = fingerprint_graph(graph)
        self.recompress_every = recompress_every
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_epoch = on_epoch
        result = engine.run(
            algorithm, graph, backend=backend, workers=workers, **params
        )
        self.backend_kind = result.backend
        # The solved labeling doubles as a depth-one parent forest; the
        # incremental layer adopts it and absorbs the stream from there.
        self._inc = IncrementalConnectivity.from_labels(
            result.labels, compress_every=0
        )
        self._lock = threading.Lock()
        self._since_epoch = 0
        self._inserted_src: list[np.ndarray] = []
        self._inserted_dst: list[np.ndarray] = []
        self._edges_applied = 0
        self._snapshot = self._build_snapshot(epoch=0)
        self._stamp_gauges()

    # ------------------------------------------------------------------ #
    # reads — always O(1)/O(batch) against the published snapshot
    # ------------------------------------------------------------------ #

    @property
    def snapshot(self) -> Snapshot:
        """The latest published epoch (grab once for multi-query reads)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        return self._snapshot.epoch

    @property
    def num_vertices(self) -> int:
        return self._snapshot.num_vertices

    @property
    def num_components(self) -> int:
        return self._snapshot.num_components

    @property
    def pending_updates(self) -> int:
        """Stream edges absorbed but not yet published in an epoch."""
        return self._since_epoch

    @property
    def edges_to_publish(self) -> int | None:
        """Stream edges after which :meth:`add_edges` publishes an epoch.

        The call that brings the edges absorbed since the last epoch to
        ``recompress_every`` publishes, so a call of at least this many
        edges does and a shorter one does not.  ``None`` when
        ``recompress_every`` is 0 and only :meth:`refresh` publishes.
        """
        if not self.recompress_every:
            return None
        return self.recompress_every - self._since_epoch

    def labels(self) -> np.ndarray:
        """The current epoch's full labeling (read-only view)."""
        return self._snapshot.labels

    def same_component(self, u: int, v: int) -> bool:
        """O(1) point query against the current epoch."""
        self.metrics.counter("serve_point_queries").inc()
        return self._snapshot.same_component(u, v)

    def component_size(self, v: int) -> int:
        """O(1) component population against the current epoch."""
        self.metrics.counter("serve_point_queries").inc()
        return self._snapshot.component_size(v)

    def same_component_batch(
        self, us: np.ndarray, vs: np.ndarray
    ) -> np.ndarray:
        """Vectorized pair query against the current epoch."""
        out = self._snapshot.same_component_batch(us, vs)
        self.metrics.counter("serve_batch_queries").inc()
        self.metrics.counter("serve_queried_pairs").inc(int(out.shape[0]))
        return out

    def component_sizes(self, vs: np.ndarray) -> np.ndarray:
        """Vectorized size query against the current epoch."""
        out = self._snapshot.component_sizes(vs)
        self.metrics.counter("serve_batch_queries").inc()
        self.metrics.counter("serve_queried_pairs").inc(int(out.shape[0]))
        return out

    # ------------------------------------------------------------------ #
    # updates — absorbed immediately, published epochally
    # ------------------------------------------------------------------ #

    def add_edge(self, u: int, v: int) -> int:
        """Insert one stream edge; returns the epoch it will publish in."""
        return self.add_edges(np.asarray([u]), np.asarray([v]))

    def add_edges(self, src: np.ndarray, dst: np.ndarray) -> int:
        """Absorb a batch of stream edges through link/compress.

        The edges take effect in the parent forest immediately (so a
        later re-solve sees them regardless of epoch boundaries) but
        become *visible to readers* when the next epoch publishes —
        after ``recompress_every`` absorbed edges, or at an explicit
        :meth:`refresh`.  Returns the current epoch number.

        Absorbing a burst costs O(batch · depth); the O(n) work (full
        compression and the size census) happens only at an epoch
        publish.
        """
        src = vertex_ids(src)
        dst = vertex_ids(dst)
        with self._lock:
            due = self.edges_to_publish
            self._inc.add_edges(src, dst)
            self._inserted_src.append(src)
            self._inserted_dst.append(dst)
            self._edges_applied += int(src.shape[0])
            self._since_epoch += int(src.shape[0])
            self.metrics.counter("serve_updates").inc()
            self.metrics.counter("serve_edges_inserted").inc(
                int(src.shape[0])
            )
            if due is not None and src.shape[0] >= due:
                self._publish_locked()
            else:
                self.metrics.gauge("serve_pending_updates").set(
                    self._since_epoch
                )
        return self.epoch

    def refresh(self) -> int:
        """Publish pending updates as a new epoch now; returns the epoch.

        A no-op (same epoch back) when nothing is pending, so callers
        can refresh defensively without burning generation numbers.
        """
        with self._lock:
            if self._since_epoch:
                self._publish_locked()
        return self.epoch

    # ------------------------------------------------------------------ #
    # oracle support and telemetry
    # ------------------------------------------------------------------ #

    def inserted_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Every stream edge absorbed so far, in insertion order."""
        with self._lock:
            if not self._inserted_src:
                empty = np.empty(0, dtype=np.int64)
                return empty, empty
            return (
                np.concatenate(self._inserted_src),
                np.concatenate(self._inserted_dst),
            )

    def batch_resolve(self, edges_applied: int | None = None) -> np.ndarray:
        """From-scratch batch re-solve of base graph + absorbed stream.

        Rebuilds the CSR from the base edges plus the first
        ``edges_applied`` stream edges (default: all of them) and runs
        the service's algorithm on it — the independent labeling the
        epoch invariant promises to match bit-for-bit.
        """
        from repro import engine

        src, dst = self.inserted_edges()
        if edges_applied is not None:
            src, dst = src[:edges_applied], dst[:edges_applied]
        base_src, base_dst = self.graph.undirected_edge_array()
        combined = from_edge_array(
            np.concatenate([base_src, src]),
            np.concatenate([base_dst, dst]),
            num_vertices=self.num_vertices,
        )
        return engine.run(self.algorithm, combined).labels

    def prometheus(self, **labels: Any) -> str:
        """The session's metrics in Prometheus text exposition format."""
        merged: dict[str, Any] = {
            "algorithm": self.algorithm,
            "backend": self.backend_kind,
        }
        if self.dataset:
            merged["dataset"] = self.dataset
        merged.update(labels)
        return render_prometheus(self.metrics, labels=merged)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _build_snapshot(self, epoch: int) -> Snapshot:
        labels = self._inc.labels()  # full compression + private copy
        sizes = np.bincount(labels, minlength=labels.shape[0])
        return Snapshot(
            epoch=epoch,
            labels=_frozen(labels),
            sizes=_frozen(sizes),
            num_components=self._inc.num_components,
            edges_applied=self._edges_applied,
        )

    def _publish_locked(self) -> None:
        t0 = time.perf_counter()
        snapshot = self._build_snapshot(self._snapshot.epoch + 1)
        # The swap is a single reference assignment: readers hold either
        # the old complete snapshot or the new one, never a mixture.
        self._snapshot = snapshot
        self._since_epoch = 0
        self.metrics.histogram("serve_publish_us").observe(
            (time.perf_counter() - t0) * 1e6
        )
        self.metrics.counter("serve_epochs").inc()
        self._stamp_gauges()
        if self.on_epoch is not None:
            self.on_epoch(snapshot)

    def _stamp_gauges(self) -> None:
        self.metrics.gauge("serve_epoch").set(self._snapshot.epoch)
        self.metrics.gauge("serve_components").set(
            self._snapshot.num_components
        )
        self.metrics.gauge("serve_pending_updates").set(self._since_epoch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectivityService({self.algorithm!r}, "
            f"n={self.num_vertices}, epoch={self.epoch}, "
            f"components={self.num_components})"
        )
