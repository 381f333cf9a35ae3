"""Compatibility shim over the telemetry layer (:mod:`repro.obs`).

:class:`Instrumentation` was the engine's original recording substrate
(flat ``phase label -> wall seconds`` dict plus named counters).  It now
delegates to a :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`: ``timer`` opens a span,
``count`` bumps a counter, and the historical ``seconds`` / ``counters``
views are derived from the trace, so existing backends and callers keep
working unchanged while every profiled run produces a full span tree.
Backends that need richer telemetry (histograms, gauges) reach the
substrate directly through ``instr.tracer`` / ``instr.metrics``.

Live telemetry rides the same shim: when ``engine.run`` attaches a
:class:`~repro.obs.heartbeat.HeartbeatMonitor`, pipelines report round
completions through :meth:`Instrumentation.beat`; without one the call
is a single ``None`` check.
"""

from __future__ import annotations

from typing import Any

from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Instrumentation"]


class Instrumentation:
    """Phase timers and named counters for a single engine run.

    ``seconds`` maps phase label -> accumulated wall seconds (repeated
    labels accumulate, matching iterative algorithms that revisit a
    phase).  ``counters`` maps counter name -> accumulated integer.
    Both stay empty while ``enabled`` is False.
    """

    __slots__ = ("tracer", "metrics", "heartbeat")

    def __init__(
        self,
        enabled: bool = False,
        *,
        tracer: Tracer | None = None,
        heartbeat: HeartbeatMonitor | None = None,
    ) -> None:
        if tracer is None:
            tracer = Tracer(enabled)
        self.tracer = tracer
        self.metrics: MetricsRegistry = tracer.metrics
        self.heartbeat = heartbeat

    @property
    def enabled(self) -> bool:
        """Whether this run records telemetry."""
        return self.tracer.enabled

    def timer(self, label: str):
        """Context manager accumulating wall time under ``label``."""
        return self.tracer.span(label)

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate ``amount`` under counter ``name`` (when enabled)."""
        self.metrics.counter(name).inc(amount)

    def beat(
        self,
        phase: str = "",
        *,
        frontier: int | None = None,
        changed: int | None = None,
        **extra: Any,
    ) -> None:
        """Report a finished pipeline round to the live heartbeat, if any."""
        if self.heartbeat is not None:
            self.heartbeat.beat(
                phase, frontier=frontier, changed=changed, **extra
            )

    @property
    def seconds(self) -> dict[str, float]:
        """Flat phase label -> wall seconds view of the spans so far."""
        return self.tracer.phase_seconds()

    @property
    def counters(self) -> dict[str, int]:
        """Counter name -> value snapshot."""
        return self.metrics.counters_snapshot()
