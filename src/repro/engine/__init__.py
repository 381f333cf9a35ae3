"""The unified connectivity engine: one dispatch path for every algorithm.

The engine ties four pieces together:

- the **name table** (:data:`ALGORITHMS`): each algorithm is one
  function ``fn(graph, backend, **params) -> CCResult`` that checks its
  own parameters (:mod:`~repro.engine.afforest`,
  :mod:`~repro.engine.hooking`, :mod:`~repro.engine.propagation`,
  :mod:`~repro.engine.traversal`), and the table maps each name to its
  function and the parameters the name fixes; ``sequential``, the
  union-find reference, runs on the vectorized backend only;
- the unified **result record** (:class:`~repro.engine.result.CCResult`)
  that every algorithm returns;
- pluggable **execution backends**
  (:class:`~repro.engine.backends.VectorizedBackend` for NumPy batch
  kernels, :class:`~repro.engine.backends.SimulatedBackend` for the
  simulated parallel machine,
  :class:`~repro.engine.backends.DistributedBackend` for edge shards
  across simulated ranks) against which every algorithm is written
  exactly once;
- uniform **telemetry**: every backend records on the run's
  :class:`~repro.obs.Tracer` (``backend.tracer``) and reports rounds to
  its heartbeat (``backend.beat``), so any profiled run yields a
  per-phase wall-time breakdown.

Usage::

    from repro import engine

    result = engine.run("afforest", g, neighbor_rounds=2)
    result = engine.run("sv", g, backend=engine.SimulatedBackend(machine))
    result = engine.run("afforest", g, backend="distributed", ranks=4)
    engine.available_algorithms()      # ['afforest', 'afforest-noskip', ...]
    engine.ALGORITHMS["dobfs"].params  # {'alpha': 15.0, 'beta': 18.0}
"""

from __future__ import annotations

import inspect
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.engine import afforest, hooking, propagation, traversal
from repro.engine.backends import (
    DistributedBackend,
    ExecutionBackend,
    SimulatedBackend,
    VectorizedBackend,
    backend_kinds,
    make_backend,
    resolve_label_dtype,
)
from repro.engine.partition import EdgeBlock, partition_csr_blocks
from repro.engine.result import CCResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.obs import Trace, Tracer
from repro.obs.heartbeat import HeartbeatEvent, HeartbeatMonitor
from repro.obs.ledger import RunLedger, record_from_result, resolve_ledger
from repro.unionfind.sequential import sequential_components

__all__ = [
    "run",
    "supports_backend",
    "available_algorithms",
    "Algorithm",
    "ALGORITHMS",
    "SEQUENTIAL",
    "CCResult",
    "Trace",
    "Tracer",
    "ExecutionBackend",
    "VectorizedBackend",
    "SimulatedBackend",
    "DistributedBackend",
    "backend_kinds",
    "make_backend",
    "resolve_label_dtype",
    "EdgeBlock",
    "partition_csr_blocks",
]


@dataclass(frozen=True)
class Algorithm:
    """One name-table entry: the function a name runs and the parameters
    the name fixes (a read-only copy, so a shared :data:`ALGORITHMS`
    entry cannot be edited through it).  ``accepted`` holds ``fn``'s
    keyword-only parameter names, read once from its signature."""

    fn: Callable[..., CCResult]
    params: Mapping[str, Any] = field(default_factory=dict)
    accepted: frozenset[str] = field(init=False)

    def __post_init__(self) -> None:
        accepted = frozenset(
            name
            for name, p in inspect.signature(self.fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY
        )
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        object.__setattr__(self, "accepted", accepted)


def _sequential(graph: CSRGraph, backend: ExecutionBackend) -> CCResult:
    """The sequential union-find reference (exact, single-threaded)."""
    return CCResult(labels=np.asarray(sequential_components(graph)))


#: the union-find reference: the one name that runs on the vectorized
#: backend only.
SEQUENTIAL = "sequential"

#: algorithm name -> its function and fixed parameters.  Caller keyword
#: arguments override the fixed ones.
ALGORITHMS: Mapping[str, Algorithm] = MappingProxyType(
    {
        "afforest": Algorithm(afforest.afforest),
        "afforest-noskip": Algorithm(afforest.afforest, {"skip_largest": False}),
        "sv": Algorithm(hooking.sv),
        "lp": Algorithm(propagation.lp),
        "bfs": Algorithm(traversal.bfs),
        "dobfs": Algorithm(
            traversal.dobfs,
            {"alpha": traversal.DEFAULT_ALPHA, "beta": traversal.DEFAULT_BETA},
        ),
        SEQUENTIAL: Algorithm(_sequential),
    }
)


def _lookup(name: str) -> Algorithm:
    algorithm = ALGORITHMS.get(name)
    if algorithm is None:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        )
    return algorithm


def available_algorithms() -> list[str]:
    """Sorted algorithm names: the keys of :data:`ALGORITHMS`."""
    return sorted(ALGORITHMS)


def supports_backend(name: str, kind: str) -> bool:
    """True when algorithm ``name`` runs on a backend of ``kind``.

    Every name runs on all three backends except ``sequential``, which
    runs on vectorized only.  Raises
    :class:`~repro.errors.ConfigurationError` for an unknown name.
    """
    _lookup(name)
    return name != SEQUENTIAL or kind == "vectorized"


def run(
    name: str,
    graph: CSRGraph,
    *,
    backend: ExecutionBackend | str | None = None,
    workers: int | None = None,
    ranks: int | None = None,
    profile: bool = False,
    trace: Tracer | bool | None = None,
    record: bool | str | RunLedger | None = None,
    heartbeat: HeartbeatMonitor
    | Callable[[HeartbeatEvent], object]
    | list[HeartbeatEvent]
    | None = None,
    **params,
) -> CCResult:
    """Run algorithm ``name`` on ``graph`` and return its result.

    ``name`` is a key of :data:`ALGORITHMS` (``"afforest"``, ``"sv"``,
    ..., ``"sequential"``); the run calls its function with the name's
    fixed parameters, overridden by the remaining keyword arguments.  A
    keyword the function does not accept raises
    :class:`~repro.errors.ConfigurationError` before any work.

    ``backend`` selects the execution substrate: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, a kind
    string (``"vectorized"`` / ``"simulated"`` / ``"distributed"``, built
    for this run via :func:`~repro.engine.backends.make_backend` with
    ``workers`` / ``ranks``), or ``None`` for a fresh
    :class:`~repro.engine.backends.VectorizedBackend`.  Every name runs on
    every backend; ``sequential`` runs on vectorized only.

    ``profile=True`` (or ``trace=True``, or passing a fresh
    :class:`~repro.obs.Tracer`) turns on the telemetry layer: every
    phase is recorded as an attributed span, and the finished
    :class:`~repro.obs.Trace` lands in ``result.trace``.  A tracer
    records one run: one that already holds a span or an instrument is
    refused with :class:`~repro.errors.ConfigurationError` before the
    backend is touched.
    ``result.phase_seconds`` is derived from that trace and always
    includes a whole-run ``total`` phase so time spent outside the
    named phases is visible; algorithms without native
    phase instrumentation report only ``total``.  With telemetry off,
    ``result.trace`` stays ``None`` and ``phase_seconds`` stays empty.

    ``record`` appends a durable :class:`~repro.obs.ledger.RunRecord` to
    the run ledger: ``True`` for the default ledger, a path or a ready
    :class:`~repro.obs.ledger.RunLedger` for an explicit one, ``False``
    to force recording off.  The default (``None``) records only when
    the ``REPRO_LEDGER`` environment variable names a ledger file.  The
    appended record's id lands on ``result.run_id``.

    ``heartbeat`` attaches live telemetry: pass a
    :class:`~repro.obs.heartbeat.HeartbeatMonitor`, a callable sink, or
    a list to append events to, and iterative algorithms emit one
    progress event per round.
    """
    algorithm = _lookup(name)
    for key in params:
        if key not in algorithm.accepted:
            raise ConfigurationError(
                f"algorithm {name!r} does not accept parameter {key!r}; "
                f"accepted: {sorted(algorithm.accepted)}"
            )
    if isinstance(trace, Tracer) and not trace.is_empty():
        raise ConfigurationError(
            "a Tracer records one run, and this one already holds spans or "
            "instruments; pass a fresh Tracer"
        )
    if backend is None:
        backend = VectorizedBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend, workers=workers, ranks=ranks)
    if name == SEQUENTIAL and backend.kind != "vectorized":
        raise ConfigurationError(
            f"algorithm {name!r} does not support the {backend.kind!r} "
            "backend; supported: ['vectorized']"
        )
    merged = {**algorithm.params, **params}
    tracer = trace if isinstance(trace, Tracer) else Tracer(
        bool(profile) or bool(trace)
    )
    ledger = resolve_ledger(record)
    monitor: HeartbeatMonitor | None
    if heartbeat is None or isinstance(heartbeat, HeartbeatMonitor):
        monitor = heartbeat
    else:
        monitor = HeartbeatMonitor(heartbeat)
    backend.tracer, backend.heartbeat = tracer, monitor
    t_start = time.perf_counter()
    try:
        if tracer.enabled:
            with tracer.span("total"):
                result = algorithm.fn(graph, backend, **merged)
        else:
            result = algorithm.fn(graph, backend, **merged)
    finally:
        # Leave shared/reused backends with a clean disabled recorder.
        backend.tracer, backend.heartbeat = Tracer(False), None
    if result.labels.dtype != VERTEX_DTYPE:
        # Backends may run on narrowed labels (label_dtype policy);
        # results always leave the engine at the canonical width, so
        # the visible labeling is bit-identical either way.
        result.labels = result.labels.astype(VERTEX_DTYPE)
    elapsed = time.perf_counter() - t_start
    result.algorithm = name
    result.backend = backend.kind
    result.params = dict(merged)
    if tracer.enabled:
        trace_obj = tracer.finish(
            algorithm=name,
            backend=backend.kind,
            workers=getattr(backend, "workers", None),
            ranks=getattr(backend, "ranks", None),
        )
        result.trace = trace_obj
        result.phase_seconds = trace_obj.phase_seconds()
        if trace_obj.counters:
            result.counters.update(trace_obj.counters)
    if ledger is not None:
        ledger_record = record_from_result(
            result,
            graph=graph,
            seconds=elapsed,
            meta={
                "workers": getattr(backend, "workers", None),
                "ranks": getattr(backend, "ranks", None),
            },
        )
        ledger.append(ledger_record)
        # Not a CCResult field: run identity only exists when recorded.
        result.run_id = ledger_record.run_id  # type: ignore[attr-defined]
    return result
