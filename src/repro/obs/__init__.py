"""Observability: span tracing, metrics, exporters, and rendering.

The telemetry layer behind ``engine.run(profile=True, trace=...)``:

- :class:`Tracer` / :class:`Trace` / :class:`Span`
  (:mod:`repro.obs.trace`) — nested, attributed spans with start/end
  timestamps; :func:`phase_label` builds labels that carry structured
  identity (``phase_label("H", round=2) == "H2"``);
- :class:`MetricsRegistry` (:mod:`repro.obs.metrics`) — counters, gauges,
  and fixed-bucket histograms, no-ops while disabled;
- exporters (:mod:`repro.obs.export`) — JSONL events and Chrome
  ``trace_event`` JSON (Perfetto-loadable), both round-trippable via
  :func:`load_trace`;
- :func:`render_trace` (:mod:`repro.obs.render`) — the ASCII
  timeline/summary printed by ``python -m repro trace``;
- the run ledger (:mod:`repro.obs.ledger`) — durable, append-only
  :class:`RunRecord` JSONL entries behind ``engine.run(record=...)``;
- :func:`diff_runs` (:mod:`repro.obs.diff`) — regression attribution
  between two recorded runs or traces;
- :class:`HeartbeatMonitor` (:mod:`repro.obs.heartbeat`) — live
  per-round progress events with an ETA from the round trend;
- :func:`render_prometheus` (:mod:`repro.obs.promexport`) — Prometheus
  text exposition of any metrics snapshot.

The package is self-contained (no imports from :mod:`repro.engine` or
:mod:`repro.bench` at module scope), so every layer above can build on it
without cycles.
"""

from __future__ import annotations

from repro.obs.diff import RunDiff, attribution_markdown, diff_runs, format_diff
from repro.obs.export import (
    TRACE_FORMATS,
    load_trace,
    trace_events,
    write_chrome,
    write_jsonl,
    write_trace,
)
from repro.obs.heartbeat import HeartbeatEvent, HeartbeatMonitor, format_event
from repro.obs.ledger import (
    RunLedger,
    RunRecord,
    record_from_result,
    resolve_ledger,
)
from repro.obs.metrics import (
    POW2_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.promexport import prometheus_lines, render_prometheus
from repro.obs.render import render_trace
from repro.obs.trace import PhaseLabel, Span, Trace, Tracer, phase_label

__all__ = [
    "Counter",
    "Gauge",
    "HeartbeatEvent",
    "HeartbeatMonitor",
    "Histogram",
    "MetricsRegistry",
    "PhaseLabel",
    "POW2_BUCKETS",
    "RunDiff",
    "RunLedger",
    "RunRecord",
    "Span",
    "Trace",
    "TRACE_FORMATS",
    "Tracer",
    "attribution_markdown",
    "diff_runs",
    "format_diff",
    "format_event",
    "load_trace",
    "phase_label",
    "prometheus_lines",
    "record_from_result",
    "render_prometheus",
    "render_trace",
    "resolve_ledger",
    "trace_events",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]
