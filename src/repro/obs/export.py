"""Trace exporters: JSONL events, Chrome ``trace_event`` JSON, loaders.

Two on-disk formats, both round-trippable back into a
:class:`~repro.obs.trace.Trace`:

- **JSONL** (:func:`write_jsonl`): a ``meta`` line (counters, histogram
  summaries, provenance) followed by one JSON object per span in
  depth-first order, each carrying its ``id`` and ``parent`` id — easy to
  grep, stream, and post-process with standard tools;
- **Chrome** (:func:`write_chrome`): the ``trace_event`` *JSON array
  format* of complete (``"ph": "X"``) events, loadable directly in
  Perfetto / ``chrome://tracing``.  The coordinating thread renders as
  tid 0 and every span track as its own named thread row.

:func:`load_trace` sniffs the format (a leading ``[`` means Chrome) and
rebuilds the span tree — for Chrome input, nesting is reconstructed from
timestamp containment per track, and worker spans re-attach under the
deepest containing span of the main track.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError
from repro.obs.trace import Span, Trace

__all__ = [
    "TRACE_FORMATS",
    "load_trace",
    "trace_events",
    "write_chrome",
    "write_jsonl",
    "write_trace",
]

#: formats accepted by :func:`write_trace` and the CLI's ``--trace-format``.
TRACE_FORMATS = ("jsonl", "chrome")

#: metadata event name carrying the non-span trace payload through Chrome
#: format (counters, histograms, provenance); viewers ignore it.
_META_EVENT = "repro_trace_meta"


# --------------------------------------------------------------------- #
# JSONL
# --------------------------------------------------------------------- #


def _jsonl_lines(trace: Trace) -> list[dict[str, Any]]:
    lines: list[dict[str, Any]] = [
        {
            "type": "meta",
            "counters": trace.counters,
            "gauges": trace.gauges,
            "histograms": trace.histograms,
            "meta": trace.meta,
        }
    ]
    next_id = 0
    stack: list[tuple[Span, int | None]] = [
        (s, None) for s in reversed(trace.spans)
    ]
    while stack:
        span, parent = stack.pop()
        span_id = next_id
        next_id += 1
        record: dict[str, Any] = {
            "type": "span",
            "id": span_id,
            "parent": parent,
            "name": span.name,
            "label": span.label,
            "t0": span.t0,
            "t1": span.t1,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span.track is not None:
            record["track"] = span.track
        lines.append(record)
        stack.extend((c, span_id) for c in reversed(span.children))
    return lines


def write_jsonl(trace: Trace, path: str | Path) -> None:
    """Write the trace as one JSON object per line (meta line first)."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in _jsonl_lines(trace):
            fh.write(json.dumps(line) + "\n")


def _load_jsonl(text: str) -> Trace:
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}
    meta: dict[str, Any] = {}
    spans: dict[int, Span] = {}
    roots: list[Span] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("type")
        if kind == "meta":
            counters = record.get("counters") or {}
            gauges = record.get("gauges") or {}
            histograms = record.get("histograms") or {}
            meta = record.get("meta") or {}
        elif kind == "span":
            span = Span(
                record.get("label", record.get("name", "")),
                float(record["t0"]),
                None if record.get("t1") is None else float(record["t1"]),
                track=record.get("track"),
            )
            span.name = record.get("name", span.name)
            span.attrs = dict(record.get("attrs") or {})
            spans[int(record["id"])] = span
            parent = record.get("parent")
            host = None if parent is None else spans.get(int(parent))
            if host is None:
                # Dangling parent ids (truncated or hand-edited files)
                # degrade to extra roots instead of raising.
                roots.append(span)
            else:
                host.children.append(span)
    return Trace(
        roots,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        meta=meta,
    )


# --------------------------------------------------------------------- #
# Chrome trace_event
# --------------------------------------------------------------------- #


def trace_events(trace: Trace) -> list[dict[str, Any]]:
    """The trace as a Chrome ``trace_event`` list (JSON array format).

    Timestamps are microseconds rebased to the trace start.  The
    coordinating thread is tid 0; each worker track gets the next tid and
    a ``thread_name`` metadata event, so Perfetto shows one row per
    worker under the phase row.
    """
    origin = trace.t0
    tids = {track: i + 1 for i, track in enumerate(trace.tracks())}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": trace.meta.get("algorithm") or "repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "engine"},
        },
    ]
    for track, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    events.append(
        {
            "name": _META_EVENT,
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {
                "counters": trace.counters,
                "gauges": trace.gauges,
                "histograms": trace.histograms,
                "meta": trace.meta,
            },
        }
    )
    for span, _depth in trace.walk():
        if span.t1 is None:
            continue
        args = {k: v for k, v in span.attrs.items() if _json_safe(v)}
        args["label"] = span.label
        events.append(
            {
                "name": span.label,
                "cat": span.name,
                "ph": "X",
                "ts": (span.t0 - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 0,
                "tid": 0 if span.track is None else tids[span.track],
                "args": args,
            }
        )
    return events


def _json_safe(value: Any) -> bool:
    return isinstance(value, (str, int, bool)) or (
        isinstance(value, float) and math.isfinite(value)
    )


def write_chrome(trace: Trace, path: str | Path) -> None:
    """Write the Chrome ``trace_event`` JSON array to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_events(trace), fh, indent=1)


def _load_chrome(events: list[dict[str, Any]]) -> Trace:
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}
    meta: dict[str, Any] = {}
    track_names: dict[int, str] = {}
    complete: list[dict[str, Any]] = []
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            if event.get("name") == "thread_name":
                tid = int(event.get("tid", 0))
                if tid != 0:
                    track_names[tid] = event.get("args", {}).get(
                        "name", f"track-{tid}"
                    )
            elif event.get("name") == _META_EVENT:
                args = event.get("args", {})
                counters = args.get("counters") or {}
                gauges = args.get("gauges") or {}
                histograms = args.get("histograms") or {}
                meta = args.get("meta") or {}
        elif ph == "X":
            complete.append(event)

    def to_span(event: dict[str, Any]) -> Span:
        tid = int(event.get("tid", 0))
        t0 = float(event.get("ts", 0.0)) / 1e6
        span = Span(
            event.get("args", {}).get("label", event.get("name", "")),
            t0,
            t0 + float(event.get("dur", 0.0)) / 1e6,
            track=None if tid == 0 else track_names.get(tid, f"track-{tid}"),
        )
        span.name = event.get("cat", span.name)
        span.attrs = {
            k: v for k, v in event.get("args", {}).items() if k != "label"
        }
        return span

    # Rebuild main-track nesting from timestamp containment: sorted by
    # start (ties broken longest-first), each span nests under the nearest
    # enclosing interval still on the stack.
    main = sorted(
        (to_span(e) for e in complete if int(e.get("tid", 0)) == 0),
        key=lambda s: (s.t0, -(s.duration)),
    )
    roots: list[Span] = []
    stack: list[Span] = []
    eps = 1e-9
    for span in main:
        while stack and span.t0 >= (stack[-1].t1 or 0.0) - eps:
            stack.pop()
        (stack[-1].children if stack else roots).append(span)
        stack.append(span)

    # Worker spans hang off the deepest main-track span containing them.
    workers = sorted(
        (to_span(e) for e in complete if int(e.get("tid", 0)) != 0),
        key=lambda s: s.t0,
    )
    for span in workers:
        host: Span | None = None
        candidates = list(roots)
        while candidates:
            found = next(
                (
                    c
                    for c in candidates
                    if c.track is None
                    and c.t0 - eps <= span.t0
                    and (span.t1 or span.t0) <= (c.t1 or 0.0) + eps
                ),
                None,
            )
            if found is None:
                break
            host = found
            candidates = list(found.children)
        (host.children if host else roots).append(span)
    return Trace(
        roots,
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        meta=meta,
    )


# --------------------------------------------------------------------- #
# dispatch
# --------------------------------------------------------------------- #


def write_trace(trace: Trace, path: str | Path, format: str = "chrome") -> None:
    """Write ``trace`` to ``path`` in the given format."""
    if format == "jsonl":
        write_jsonl(trace, path)
    elif format == "chrome":
        write_chrome(trace, path)
    else:
        raise ConfigurationError(
            f"unknown trace format {format!r}; available: {list(TRACE_FORMATS)}"
        )


def load_trace(path: str | Path) -> Trace:
    """Load a trace written by :func:`write_trace`, sniffing the format."""
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if not stripped:
        raise ConfigurationError(f"trace file {path} is empty")
    if stripped.startswith("["):
        return _load_chrome(json.loads(text))
    return _load_jsonl(text)
