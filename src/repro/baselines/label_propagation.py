"""Min-label propagation CC (paper Sec. II-B) — deprecated shims.

Every vertex starts with a unique label; iterations propagate the minimum
label across edges until a fixpoint.  Work is ``O(D · |E|)`` in the
synchronous variant — the diameter dependence the paper contrasts against.
The *data-driven* variant keeps a frontier of vertices whose label changed
and only processes their edges, trading work for frontier maintenance
(Sec. II-B's discussion of [6]).

Both algorithms are implemented exactly once, as backend-agnostic
finish phases (:func:`repro.engine.finish.lp_finish` /
:func:`repro.engine.finish.lp_datadriven_finish`); the entry points
here are thin deprecated shims over :func:`repro.engine.run` kept for
backward compatibility — prefer ``engine.run("lp", graph)`` /
``engine.run("lp-datadriven", graph)`` in new code.
"""

from __future__ import annotations

from repro.engine import run as _engine_run
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

#: Back-compat alias — LP runs return the unified engine record.
LPResult = CCResult


def label_propagation(graph: CSRGraph) -> CCResult:
    """Synchronous min-label propagation (vectorized).

    .. deprecated:: 1.2
        Equivalent to ``engine.run("lp", graph)``; prefer the engine call
        in new code — it exposes backend selection and telemetry.
    """
    return _engine_run("lp", graph)


def label_propagation_datadriven(graph: CSRGraph) -> CCResult:
    """Data-driven (frontier) min-label propagation (vectorized).

    .. deprecated:: 1.2
        Equivalent to ``engine.run("lp-datadriven", graph)``; prefer the
        engine call in new code.
    """
    return _engine_run("lp-datadriven", graph)
