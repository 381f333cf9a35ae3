"""ASCII trace rendering: timeline, phase table, per-track rows.

The terminal twin of the Chrome exporter, following the
:mod:`repro.bench.ascii` conventions (block characters, sparklines, no
plotting stack).  :func:`render_trace` produces the full report printed
by ``python -m repro trace``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import Trace

__all__ = ["render_trace", "timeline_bar"]

_BAR = "█"
_PAD = "·"


def timeline_bar(
    intervals: list[tuple[float, float]],
    origin: float,
    total: float,
    width: int,
) -> str:
    """A ``width``-character strip marking ``intervals`` on ``[origin,
    origin+total)`` with solid blocks (non-empty intervals always mark at
    least one cell)."""
    if total <= 0 or width <= 0:
        return _PAD * max(width, 0)
    cells = [False] * width
    for t0, t1 in intervals:
        lo = int((t0 - origin) / total * width)
        hi = int((t1 - origin) / total * width)
        lo = min(max(lo, 0), width - 1)
        hi = min(max(hi, lo + 1), width)
        for i in range(lo, hi):
            cells[i] = True
    return "".join(_BAR if c else _PAD for c in cells)


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def render_trace(trace: Trace, *, width: int = 48) -> str:
    """Multi-section ASCII report of a trace.

    Sections: a provenance header; the span tree with durations and a
    shared-timeline strip per span; one busy-bar row per span track;
    counters and histogram summaries.
    """
    origin = trace.t0
    total = max(trace.t1 - origin, 0.0)
    meta = trace.meta
    title = meta.get("algorithm") or "trace"
    qualifiers = [str(meta[k]) for k in ("backend", "workers") if meta.get(k)]
    header = title + (f" [{', '.join(qualifiers)}]" if qualifiers else "")
    lines = [
        f"trace: {header} — {_fmt_ms(total)} ms wall, "
        f"{trace.num_spans()} spans"
    ]

    main_spans = [
        (span, depth)
        for span, depth in trace.walk()
        if span.track is None
    ]
    # Column width tracks the deepest/longest label (nested X-merge
    # spans, attribute-heavy phases) so unknown vocabularies stay aligned.
    name_width = max(
        [22] + [2 * d + len(str(s.label)) for s, d in main_spans]
    )
    lines.append("")
    lines.append(f"{'span':<{name_width}} {'ms':>10} {'%':>7}  timeline")
    for span, depth in main_spans:
        name = "  " * depth + str(span.label)
        share = span.duration / total if total else 0.0
        bar = timeline_bar(
            [(span.t0, span.t1 or span.t0)], origin, total, width
        )
        open_mark = "" if span.t1 is not None else "  (open)"
        lines.append(
            f"{name:<{name_width}} {_fmt_ms(span.duration):>10}"
            f" {share:>6.1%}  {bar}{open_mark}"
        )

    tracks = trace.tracks()
    if tracks:
        by_track: dict[str, list] = {t: [] for t in tracks}
        for span in trace.worker_spans():
            by_track[span.track].append(span)  # type: ignore[index]
        lines.append("")
        lines.append("tracks:")
        for track in tracks:
            spans = by_track[track]
            busy = sum(s.duration for s in spans)
            share = busy / total if total else 0.0
            bar = timeline_bar(
                [(s.t0, s.t1 or s.t0) for s in spans], origin, total, width
            )
            lines.append(
                f"  {track:<12} {bar}  {len(spans)} tasks, "
                f"busy {_fmt_ms(busy)} ms ({share:.0%})"
            )

    if trace.counters:
        lines.append("")
        parts = ", ".join(
            f"{k}={v}" for k, v in sorted(trace.counters.items())
        )
        lines.append(f"counters: {parts}")
    if trace.gauges:
        lines.append("")
        parts = ", ".join(
            f"{k}={v:g}" for k, v in sorted(trace.gauges.items())
        )
        lines.append(f"gauges: {parts}")
    if trace.histograms:
        lines.append("")
        lines.append("histograms:")
        lines.extend(_histogram_lines(trace.histograms))
    return "\n".join(lines)


def _histogram_lines(histograms: dict[str, dict[str, Any]]) -> list[str]:
    """One summary + sparkline line per histogram."""
    from repro.bench.ascii import sparkline  # lazy: bench imports the engine

    lines = []
    for name, summary in sorted(histograms.items()):
        if not isinstance(summary, dict):
            lines.append(f"  {name}: (unreadable summary)")
            continue
        count = summary.get("count", 0)
        if not count:
            lines.append(f"  {name}: empty")
            continue
        spark = sparkline(
            [float(v) for v in (summary.get("buckets") or {}).values()]
        )
        lines.append(
            f"  {name}: n={count} mean={summary.get('mean', 0.0):.3g} "
            f"min={summary.get('min', 0.0):.3g} "
            f"max={summary.get('max', 0.0):.3g}  {spark}"
        )
    return lines
