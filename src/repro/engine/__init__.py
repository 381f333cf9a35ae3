"""The unified connectivity engine: one dispatch path for every algorithm.

The engine ties four pieces together:

- the **name table** (:mod:`~repro.engine.plan`) — every algorithm is a
  plan, one sampling phase plus one finish phase; the algorithm names
  (``afforest``, ``sv``, ...) map to their plans and fixed parameters in
  :data:`~repro.engine.plan.CANONICAL_PLANS`, and ``sequential``, the
  union-find reference, is the one name outside the table;
- the unified **result record** (:class:`~repro.engine.result.CCResult`)
  that every algorithm returns;
- pluggable **execution backends**
  (:class:`~repro.engine.backends.VectorizedBackend` for NumPy batch
  kernels, :class:`~repro.engine.backends.SimulatedBackend` for the
  simulated parallel machine,
  :class:`~repro.engine.backends.DistributedBackend` for edge shards
  across simulated ranks) against which every sampling and finish phase
  is written exactly once;
- uniform **telemetry**: every backend records on the run's
  :class:`~repro.obs.Tracer` (``backend.tracer``) and reports rounds to
  its heartbeat (``backend.beat``), so any profiled run yields a
  per-phase wall-time breakdown.

Usage::

    from repro import engine

    result = engine.run("afforest", g, neighbor_rounds=2)
    result = engine.run("sv", g, backend=engine.SimulatedBackend(machine))
    result = engine.run("afforest", g, backend="distributed", ranks=4)
    engine.available_algorithms()   # ['afforest', 'afforest-noskip', ...]
    engine.get_plan("sv").name      # 'none+sv'
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable

import numpy as np

from repro.constants import VERTEX_DTYPE
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
from repro.engine.plan import (
    CANONICAL_PLANS,
    SEQUENTIAL,
    Plan,
    available_algorithms,
    get_plan,
    run_plan,
)
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
    "Plan",
    "CANONICAL_PLANS",
    "get_plan",
    "run_plan",
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


def supports_backend(name: str, kind: str) -> bool:
    """True when algorithm ``name`` runs on a backend of ``kind``.

    Every name in the plan table runs on all three backends;
    ``sequential`` runs on vectorized only.  Raises
    :class:`~repro.errors.ConfigurationError` for an unknown name.
    """
    if name == SEQUENTIAL:
        return kind == "vectorized"
    get_plan(name)
    return True


def _run_sequential(
    graph: CSRGraph, backend: ExecutionBackend, **params
) -> CCResult:
    """The sequential union-find reference (exact, single-threaded)."""
    return CCResult(labels=np.asarray(sequential_components(graph, **params)))


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

    ``name`` is a name in the plan table (``"afforest"``, ``"sv"``, ...)
    or ``"sequential"``; :func:`~repro.engine.plan.get_plan` looks the
    first up and :func:`~repro.engine.plan.run_plan` runs it.

    ``backend`` selects the execution substrate: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, a kind
    string (``"vectorized"`` / ``"simulated"`` / ``"distributed"``, built via
    :func:`~repro.engine.backends.make_backend` with ``workers`` /
    ``ranks`` and torn down after the run), or ``None`` for a fresh
    :class:`~repro.engine.backends.VectorizedBackend`.  Every plan runs on
    every backend; ``sequential`` runs on vectorized only.

    ``profile=True`` (or ``trace=True``, or passing a pre-built
    :class:`~repro.obs.Tracer`) turns on the telemetry layer: every
    pipeline phase is recorded as an attributed span, and the finished
    :class:`~repro.obs.Trace` lands in ``result.trace``.
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
    a list to append events to, and iterative pipelines emit one
    progress event per round.  Remaining keyword arguments override the
    parameters a name fixes and are forwarded to its pipeline.
    """
    plan = None if name == SEQUENTIAL else get_plan(name)
    owned = False
    if backend is None:
        backend = VectorizedBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend, workers=workers, ranks=ranks)
        owned = True
    solve: Callable[..., CCResult]
    if plan is None:
        if backend.kind != "vectorized":
            raise ConfigurationError(
                f"algorithm {name!r} does not support the {backend.kind!r} "
                "backend; supported: ['vectorized']"
            )
        solve, merged = _run_sequential, dict(params)
    else:
        solve, merged = partial(run_plan, plan), {**plan.params, **params}
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
        try:
            if tracer.enabled:
                with tracer.span("total"):
                    result = solve(graph, backend, **merged)
            else:
                result = solve(graph, backend, **merged)
        finally:
            # Leave shared/reused backends with a clean disabled recorder.
            backend.tracer, backend.heartbeat = Tracer(False), None
        if result.labels.dtype != VERTEX_DTYPE:
            # Backends may run on narrowed labels (label_dtype policy);
            # results always leave the engine at the canonical width, so
            # the visible labeling is bit-identical either way.
            result.labels = result.labels.astype(VERTEX_DTYPE)
    finally:
        if owned:
            backend.close()
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
