"""The unified connectivity engine: one dispatch path for every algorithm.

The engine ties four pieces together:

- the **algorithm registry** (:mod:`~repro.engine.registry`) — every CC
  algorithm is registered once with metadata (description, default
  parameters, supported backends) and resolved by name here, by
  ``repro.connected_components``, by the CLI, and by the benchmark
  harness;
- the unified **result record** (:class:`~repro.engine.result.CCResult`)
  that every algorithm returns;
- pluggable **execution backends**
  (:class:`~repro.engine.backends.VectorizedBackend` for NumPy batch
  kernels, :class:`~repro.engine.backends.SimulatedBackend` for the
  simulated parallel machine,
  :class:`~repro.engine.backends.DistributedBackend` for edge shards
  across simulated ranks) against which every sampling and finish phase
  is written exactly once;
- uniform **instrumentation**
  (:class:`~repro.engine.instrumentation.Instrumentation`) so any
  profiled run yields a per-phase wall-time breakdown.

Usage::

    from repro import engine

    result = engine.run("afforest", g, neighbor_rounds=2)
    result = engine.run("sv", g, backend=engine.SimulatedBackend(machine))
    result = engine.run("afforest", g, backend="distributed", ranks=4)
    engine.available_algorithms()   # ['afforest', 'afforest-noskip', ...]

Adding an algorithm::

    from repro.engine import CCResult, register

    @register("mycc", description="my algorithm")
    def _run_mycc(graph, backend, **params):
        return CCResult(labels=my_labels(graph, **params))
"""

from __future__ import annotations

import time
from typing import Callable

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
from repro.engine.instrumentation import Instrumentation
from repro.engine.partition import EdgeBlock, partition_csr_blocks
from repro.engine.plan import (
    CANONICAL_PLANS,
    Plan,
    PlanRegistry,
    available_plans,
    describe_plans,
    get_plan,
    run_plan,
)
from repro.engine.registry import (
    AlgorithmSpec,
    available_algorithms,
    describe_algorithms,
    get_algorithm,
    register,
    support_matrix_markdown,
    supported_backends,
)
from repro.engine.result import CCResult
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.obs import Trace, Tracer
from repro.obs.heartbeat import HeartbeatEvent, HeartbeatMonitor
from repro.obs.ledger import RunLedger, record_from_result, resolve_ledger

__all__ = [
    "run",
    "register",
    "get_algorithm",
    "available_algorithms",
    "describe_algorithms",
    "supported_backends",
    "Plan",
    "PlanRegistry",
    "CANONICAL_PLANS",
    "available_plans",
    "describe_plans",
    "get_plan",
    "run_plan",
    "AlgorithmSpec",
    "CCResult",
    "Instrumentation",
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
    "support_matrix_markdown",
]


def run(
    name: str | CSRGraph | None = None,
    graph: CSRGraph | None = None,
    *,
    plan: str | Plan | None = None,
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
    """Run registered algorithm ``name`` on ``graph`` and return its result.

    ``name`` accepts registered algorithms and composed plan names
    (``"kout+sv"``); ``plan=`` is explicit sugar for the latter —
    ``engine.run(g, plan="kout+sv")`` and
    ``engine.run(plan=engine.get_plan("kout+sv"), graph=g)`` both
    dispatch the composition through the same path.

    ``backend`` selects the execution substrate: an
    :class:`~repro.engine.backends.ExecutionBackend` instance, a kind
    string (``"vectorized"`` / ``"simulated"`` / ``"distributed"``, built via
    :func:`~repro.engine.backends.make_backend` with ``workers`` /
    ``ranks`` and torn down after the run), or ``None`` for a fresh
    :class:`~repro.engine.backends.VectorizedBackend`.  The algorithm must
    list the backend's kind in its registry metadata.

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
    algorithm's registered defaults and are forwarded to its pipeline.
    """
    if plan is not None:
        plan_name = plan.name if isinstance(plan, Plan) else str(plan)
        if graph is None and isinstance(name, CSRGraph):
            name, graph = plan_name, name
        elif name is None:
            name = plan_name
        else:
            raise ConfigurationError(
                "pass either an algorithm name or plan=, not both"
            )
    if not isinstance(name, str) or graph is None:
        raise ConfigurationError(
            "run() needs an algorithm/plan name and a graph"
        )
    spec = get_algorithm(name)
    owned = False
    if backend is None:
        backend = VectorizedBackend()
    elif isinstance(backend, str):
        backend = make_backend(backend, workers=workers, ranks=ranks)
        owned = True
    if not spec.supports_backend(backend.kind):
        raise ConfigurationError(
            f"algorithm {name!r} does not support the {backend.kind!r} "
            f"backend; supported: {list(spec.backends)}"
        )
    merged = {**spec.defaults, **params}
    tracer = trace if isinstance(trace, Tracer) else Tracer(
        bool(profile) or bool(trace)
    )
    ledger = resolve_ledger(record)
    monitor: HeartbeatMonitor | None
    if heartbeat is None or isinstance(heartbeat, HeartbeatMonitor):
        monitor = heartbeat
    else:
        monitor = HeartbeatMonitor(heartbeat)
    instr = Instrumentation(tracer=tracer, heartbeat=monitor)
    backend.bind(instr)
    t_start = time.perf_counter()
    try:
        try:
            if tracer.enabled:
                with tracer.span("total"):
                    result = spec.fn(graph, backend, **merged)
            else:
                result = spec.fn(graph, backend, **merged)
        finally:
            # Leave shared/reused backends with a clean disabled recorder.
            backend.bind(Instrumentation(False))
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
