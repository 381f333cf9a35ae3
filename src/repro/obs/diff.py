"""Trace-diff regression attribution: *why* did a run get slower?

The perf gate can say a median moved 1.4x; this module says where.
:func:`diff_runs` compares two recorded runs — ledger entries
(:class:`~repro.obs.ledger.RunRecord`), traces
(:class:`~repro.obs.trace.Trace`), or plain benchmark-record dicts —
and attributes the movement to phases (per-label wall seconds) and to
the counters/gauges that changed with it.  The result renders three
ways: a one-line summary for failure messages
(``sv/lattice: +12% total — new phase S3, rounds_skipped 1->0``), an
aligned text table for the CLI, and a markdown table for CI step
summaries.

Attribution is deliberately threshold-based, not statistical: a phase
"moved" when its delta clears both a relative and an absolute floor,
so timer jitter on microsecond phases does not read as a regression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.ledger import RunRecord
from repro.obs.trace import Trace

__all__ = [
    "CounterDelta",
    "PhaseDelta",
    "RunDiff",
    "attribution_markdown",
    "diff_runs",
    "format_diff",
]

#: a phase counts as moved past this fraction of its larger side ...
REL_THRESHOLD = 0.10
#: ... provided the absolute delta also clears this many seconds.
ABS_FLOOR_SECONDS = 50e-6


@dataclass
class PhaseDelta:
    """One phase's wall seconds on each side of the diff."""

    label: str
    a_seconds: float
    b_seconds: float

    @property
    def delta(self) -> float:
        return self.b_seconds - self.a_seconds

    @property
    def pct(self) -> float:
        """Percent change relative to side a (+inf for a new phase)."""
        if self.a_seconds <= 0.0:
            return float("inf") if self.b_seconds > 0.0 else 0.0
        return 100.0 * self.delta / self.a_seconds

    def moved(
        self,
        rel_threshold: float = REL_THRESHOLD,
        abs_floor: float = ABS_FLOOR_SECONDS,
    ) -> bool:
        """Whether the movement clears both significance floors."""
        scale = max(self.a_seconds, self.b_seconds)
        return abs(self.delta) >= max(rel_threshold * scale, abs_floor)

    def describe(self) -> str:
        """``+38% in H3`` / ``new phase S3`` / ``S3 disappeared``."""
        if self.a_seconds <= 0.0:
            return f"new phase {self.label}"
        if self.b_seconds <= 0.0:
            return f"{self.label} disappeared"
        return f"{self.pct:+.0f}% in {self.label}"


@dataclass
class CounterDelta:
    """One counter/gauge value on each side of the diff."""

    name: str
    a: float
    b: float

    def describe(self) -> str:
        def fmt(v: float) -> str:
            return str(int(v)) if float(v).is_integer() else f"{v:.4g}"

        return f"{self.name} {fmt(self.a)}→{fmt(self.b)}"


@dataclass
class RunDiff:
    """Two runs compared: totals, per-phase deltas, moved counters."""

    label_a: str
    label_b: str
    total_a: float
    total_b: float
    phases: list[PhaseDelta] = field(default_factory=list)
    counters: list[CounterDelta] = field(default_factory=list)
    gauges: list[CounterDelta] = field(default_factory=list)
    #: root spans each side's seconds are averaged over (1: not averaged).
    roots_a: int = 1
    roots_b: int = 1

    @property
    def ratio(self) -> float:
        """total_b / total_a (inf when side a measured zero seconds)."""
        if self.total_a <= 0.0:
            return float("inf") if self.total_b > 0.0 else 1.0
        return self.total_b / self.total_a

    def moved_phases(self) -> list[PhaseDelta]:
        """Phases whose movement is significant, largest |delta| first."""
        return [p for p in self.phases if p.moved()]

    def regressed(self, threshold: float = 1.0) -> bool:
        """Whether side b is slower than ``threshold`` x side a."""
        return self.ratio > threshold

    def attribution(self, max_counters: int = 3) -> str:
        """The attribution clause: top phase moves plus moved counters."""
        parts: list[str] = []
        moved = self.moved_phases()
        if moved:
            parts.append(moved[0].describe())
        parts.extend(c.describe() for c in self.counters[:max_counters])
        if not parts:
            return "no phase or counter moved past thresholds"
        return ", ".join(parts)

    def summary(self) -> str:
        """One line: label, total movement, and the attribution clause."""
        label = self.label_b or self.label_a or "run"
        if self.total_a > 0.0:
            total = f"{100.0 * (self.ratio - 1.0):+.0f}% total"
        else:
            total = f"{self.total_b * 1000:.2f} ms total"
        return f"{label}: {total} — {self.attribution()}"


def _as_run(source: Any, label: str | None = None) -> dict[str, Any]:
    """Normalise a diffable source into one flat dict.

    Accepts :class:`RunRecord`, :class:`Trace`, or a mapping shaped like
    a benchmark record (``median_seconds`` / ``seconds`` /
    ``phase_seconds`` / ``counters`` / ``gauges`` keys, all optional).
    """
    if isinstance(source, RunRecord):
        phase = dict(source.phase_seconds)
        return {
            "label": label or source.label(),
            "total": source.seconds or phase.get("total", 0.0),
            "phase_seconds": phase,
            "counters": dict(source.counters),
            "gauges": dict(source.gauges),
        }
    if isinstance(source, Trace):
        phase = source.phase_seconds()
        meta = source.meta
        inferred = "/".join(
            str(meta[k]) for k in ("algorithm", "backend") if meta.get(k)
        )
        roots = _repeated_roots(source)
        if roots > 1:
            # One root per traced job: compare the mean job, since the
            # faster side of a fixed-time run traces more jobs.  The
            # roots' own label is that total, not a phase.
            phase = {k: v / roots for k, v in phase.items()}
            total = phase.pop(source.spans[0].label, 0.0)
        else:
            total = phase.get("total") or (source.t1 - source.t0)
        return {
            "label": label or inferred,
            "total": total,
            "phase_seconds": phase,
            "counters": dict(source.counters),
            "gauges": dict(source.gauges),
            "roots": roots,
        }
    if isinstance(source, dict):
        phase = dict(source.get("phase_seconds") or {})
        total = (
            source.get("seconds")
            or source.get("median_seconds")
            or phase.get("total")
            or 0.0
        )
        inferred = "/".join(
            str(source[k])
            for k in ("algorithm", "dataset", "backend")
            if source.get(k)
        )
        return {
            "label": label or inferred,
            "total": float(total),
            "phase_seconds": phase,
            "counters": dict(source.get("counters") or {}),
            "gauges": dict(source.get("gauges") or {}),
        }
    from repro.errors import ConfigurationError

    raise ConfigurationError(
        f"cannot diff {type(source).__name__}; expected a RunRecord,"
        " Trace, or benchmark-record dict"
    )


def _repeated_roots(trace: Trace) -> int:
    """How many root spans ``trace`` holds if they all share one label
    (one per repeated job), else 1."""
    labels = {span.label for span in trace.spans}
    return len(trace.spans) if len(labels) == 1 else 1


#: counters excluded from attribution: the communication totals and the
#: replica memory scale with the distributed world size rather than with
#: the regression being attributed, so a ranks=2 vs ranks=4 diff would
#: drown the clause in traffic deltas.
_NOISE_COUNTERS = frozenset(
    {
        "comm_bytes_sent",
        "comm_messages",
        "comm_supersteps",
        "replica_bytes",
    }
)

#: name prefixes suppressed the same way (per-rank-pair traffic matrix).
_NOISE_PREFIXES = ("comm_pair_",)


def diff_runs(
    a: Any,
    b: Any,
    *,
    label_a: str | None = None,
    label_b: str | None = None,
) -> RunDiff:
    """Compare two runs; side ``a`` is the baseline, ``b`` the candidate.

    A trace whose root spans repeat one label (R > 1, e.g. the jobs of a
    traced benchmark run) is compared per root: its total and every phase
    are divided by R, so two runs that traced different numbers of jobs
    compare job for job.
    """
    run_a = _as_run(a, label_a)
    run_b = _as_run(b, label_b)

    labels = list(run_a["phase_seconds"])
    labels += [k for k in run_b["phase_seconds"] if k not in labels]
    phases = [
        PhaseDelta(
            k,
            float(run_a["phase_seconds"].get(k, 0.0)),
            float(run_b["phase_seconds"].get(k, 0.0)),
        )
        for k in labels
        if k != "total"
    ]
    phases.sort(key=lambda p: abs(p.delta), reverse=True)

    def moved_values(key: str) -> list[CounterDelta]:
        va, vb = run_a[key], run_b[key]
        names = list(va) + [k for k in vb if k not in va]
        out = [
            CounterDelta(k, float(va.get(k, 0)), float(vb.get(k, 0)))
            for k in names
            if k not in _NOISE_COUNTERS
            and not k.startswith(_NOISE_PREFIXES)
        ]
        out = [c for c in out if c.a != c.b]
        out.sort(key=lambda c: abs(c.b - c.a), reverse=True)
        return out

    return RunDiff(
        label_a=run_a["label"],
        label_b=run_b["label"],
        total_a=float(run_a["total"]),
        total_b=float(run_b["total"]),
        phases=phases,
        counters=moved_values("counters"),
        gauges=moved_values("gauges"),
        roots_a=run_a.get("roots", 1),
        roots_b=run_b.get("roots", 1),
    )


def format_diff(diff: RunDiff, max_phases: int = 12) -> str:
    """Aligned text rendering for the CLI: totals, phases, counters."""
    heads: list[str] = []
    for side, label, total, roots in (
        ("a", diff.label_a, diff.total_a, diff.roots_a),
        ("b", diff.label_b, diff.total_b, diff.roots_b),
    ):
        head = f"{side}: {label or '(unlabelled)'}  total {total * 1000:.3f} ms"
        if max(diff.roots_a, diff.roots_b) > 1:
            head += f" per root, R={roots}"
        heads.append(head)
    lines = [heads[0], f"{heads[1]}  ({diff.ratio:.2f}x)"]
    shown = diff.phases[:max_phases]
    if shown:
        width = max(len("phase"), *(len(p.label) for p in shown))
        lines.append("")
        lines.append(
            f"{'phase':<{width}}  {'a ms':>9}  {'b ms':>9}"
            f"  {'delta ms':>9}  moved"
        )
        for p in shown:
            flag = "*" if p.moved() else ""
            lines.append(
                f"{p.label:<{width}}  {p.a_seconds * 1000:>9.3f}"
                f"  {p.b_seconds * 1000:>9.3f}"
                f"  {p.delta * 1000:>+9.3f}  {flag}"
            )
        hidden = len(diff.phases) - len(shown)
        if hidden > 0:
            lines.append(f"... {hidden} more phases below threshold")
    for title, deltas in (
        ("counters", diff.counters),
        ("gauges", diff.gauges),
    ):
        if deltas:
            lines.append("")
            lines.append(
                f"{title}: "
                + "; ".join(c.describe() for c in deltas[:8])
            )
    lines.append("")
    lines.append(diff.summary())
    return "\n".join(lines)


def attribution_markdown(
    pairs: list[tuple[str, RunDiff]],
    *,
    title: str = "Regression attribution",
) -> str:
    """A markdown table over many diffs (one row per combination).

    ``pairs`` maps a display name (``dataset/algorithm/backend``) to its
    diff; rows are ordered slowest-ratio first so the likeliest culprit
    tops the CI step summary.
    """
    lines = [f"### {title}", ""]
    if not pairs:
        lines.append("_no comparable runs_")
        return "\n".join(lines)
    lines.append("| run | ratio | phase attribution | counters moved |")
    lines.append("|---|---|---|---|")
    for name, diff in sorted(
        pairs, key=lambda item: item[1].ratio, reverse=True
    ):
        moved = diff.moved_phases()
        phase_cell = (
            "; ".join(p.describe() for p in moved[:3]) if moved else "-"
        )
        counter_cell = (
            "; ".join(c.describe() for c in diff.counters[:3])
            if diff.counters
            else "-"
        )
        ratio = (
            f"{diff.ratio:.2f}x" if diff.total_a > 0.0 else "new"
        )
        lines.append(
            f"| {name} | {ratio} | {phase_cell} | {counter_cell} |"
        )
    return "\n".join(lines)
