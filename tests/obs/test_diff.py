"""Tests for trace-diff regression attribution (repro.obs.diff)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.obs.diff import (
    ABS_FLOOR_SECONDS,
    CounterDelta,
    PhaseDelta,
    attribution_markdown,
    diff_runs,
    format_diff,
)
from repro.obs.ledger import RunRecord
from repro.obs.trace import Span, Trace


class TestPhaseDelta:
    def test_pct_and_describe(self):
        delta = PhaseDelta("H3", 0.100, 0.138)
        assert delta.pct == pytest.approx(38.0)
        assert delta.describe() == "+38% in H3"

    def test_new_and_disappeared_phases(self):
        assert PhaseDelta("X", 0.0, 0.01).describe() == "new phase X"
        assert math.isinf(PhaseDelta("X", 0.0, 0.01).pct)
        assert PhaseDelta("Y", 0.01, 0.0).describe() == "Y disappeared"

    def test_moved_needs_both_floors(self):
        # Large relative move, but under the absolute floor: not moved.
        tiny = PhaseDelta("H1", 10e-6, 20e-6)
        assert not tiny.moved()
        # Clear of both floors: moved.
        assert PhaseDelta("H1", 0.010, 0.013).moved()
        # Large absolute delta but small relative one: not moved.
        assert not PhaseDelta("H1", 1.00, 1.05).moved()

    def test_abs_floor_boundary(self):
        at_floor = PhaseDelta("H1", 0.0, ABS_FLOOR_SECONDS)
        assert at_floor.moved()


class TestCounterDelta:
    def test_describe_integers(self):
        assert CounterDelta("rounds_skipped", 1, 0).describe() == (
            "rounds_skipped 1→0"
        )

    def test_describe_floats(self):
        assert "1.5" in CounterDelta("x", 1.5, 2.0).describe()


def _run(total, phases, counters=None, gauges=None):
    return {
        "median_seconds": total,
        "phase_seconds": phases,
        "counters": counters or {},
        "gauges": gauges or {},
    }


class TestDiffRuns:
    def test_attributes_regression_to_phase_and_counters(self):
        a = _run(0.10, {"H1": 0.02, "H3": 0.05}, {"rounds_skipped": 1})
        b = _run(0.14, {"H1": 0.02, "H3": 0.09}, {"rounds_skipped": 0})
        diff = diff_runs(a, b, label_a="sv/lattice", label_b="sv/lattice")
        assert diff.ratio == pytest.approx(1.4)
        assert diff.regressed(1.25)
        moved = diff.moved_phases()
        assert moved and moved[0].label == "H3"
        summary = diff.summary()
        assert "sv/lattice" in summary
        assert "+80% in H3" in summary
        assert "rounds_skipped 1→0" in summary

    def test_total_is_excluded_from_phase_deltas(self):
        a = _run(0.1, {"total": 0.1, "H1": 0.1})
        b = _run(0.2, {"total": 0.2, "H1": 0.2})
        diff = diff_runs(a, b)
        assert [p.label for p in diff.phases] == ["H1"]

    def test_unchanged_counters_are_dropped(self):
        a = _run(0.1, {}, {"same": 5, "moved": 1})
        b = _run(0.1, {}, {"same": 5, "moved": 3})
        diff = diff_runs(a, b)
        assert [c.name for c in diff.counters] == ["moved"]

    def test_noise_counters_are_excluded(self):
        a = _run(0.1, {}, {"comm_bytes_sent": 10})
        b = _run(0.1, {}, {"comm_bytes_sent": 900})
        assert diff_runs(a, b).counters == []

    def test_comm_counters_are_noise(self):
        a = _run(
            0.1,
            {},
            {
                "comm_bytes_sent": 1000,
                "comm_messages": 8,
                "comm_supersteps": 4,
                "comm_pair_0_1": 500,
                "rounds_skipped": 1,
            },
        )
        b = _run(
            0.1,
            {},
            {
                "comm_bytes_sent": 9000,
                "comm_messages": 64,
                "comm_supersteps": 4,
                "comm_pair_0_1": 100,
                "comm_pair_0_3": 4400,
                "rounds_skipped": 0,
            },
        )
        diff = diff_runs(a, b)
        assert [c.name for c in diff.counters] == ["rounds_skipped"]

    def test_diff_across_rank_counts_attributes_cleanly(self):
        """ranks=2 vs ranks=4 runs differ wildly in traffic, but the
        attribution clause must stay about phases and algorithmic
        counters, not the comm totals."""
        from repro import engine
        from repro.engine.backends import DistributedBackend
        from repro.generators import uniform_random_graph

        g = uniform_random_graph(300, edge_factor=4, seed=9)
        runs = {}
        for ranks in (2, 4):
            result = engine.run(
                "sv",
                g,
                backend=DistributedBackend(ranks=ranks),
                profile=True,
            )
            runs[ranks] = _run(0.1, {}, dict(result.counters))
        assert runs[2]["counters"]["comm_bytes_sent"] != (
            runs[4]["counters"]["comm_bytes_sent"]
        )
        diff = diff_runs(runs[2], runs[4])
        assert not any(c.name.startswith("comm_") for c in diff.counters)

    def test_phases_sorted_by_absolute_delta(self):
        a = _run(1.0, {"A": 0.1, "B": 0.5, "C": 0.2})
        b = _run(1.0, {"A": 0.15, "B": 0.9, "C": 0.1})
        labels = [p.label for p in diff_runs(a, b).phases]
        assert labels == ["B", "C", "A"]

    def test_accepts_run_records(self):
        rec_a = RunRecord(
            run_id="ra", algorithm="sv", backend="vectorized",
            seconds=0.1, phase_seconds={"H1": 0.1},
        )
        rec_b = RunRecord(
            run_id="rb", algorithm="sv", backend="vectorized",
            seconds=0.2, phase_seconds={"H1": 0.2},
        )
        diff = diff_runs(rec_a, rec_b)
        assert diff.ratio == pytest.approx(2.0)
        assert diff.label_a == "sv/?/vectorized"

    def test_accepts_traces(self):
        a = Trace(
            [Span("H1", 0.0, 0.1)],
            counters={"c": 1},
            meta={"algorithm": "sv", "backend": "vectorized"},
        )
        b = Trace([Span("H1", 0.0, 0.3)], counters={"c": 2})
        diff = diff_runs(a, b)
        assert diff.label_a == "sv/vectorized"
        assert diff.ratio == pytest.approx(3.0)
        assert [c.name for c in diff.counters] == ["c"]

    def test_repeated_roots_compare_per_root(self):
        """A traced benchmark run holds one ``job`` root per traced job,
        and the faster side of a fixed-time run traces more of them; the
        same job traced 3 and 5 times must compare as equal."""

        def jobs(count):
            roots = []
            for i in range(count):
                t = 10.0 * i
                job = Span("job", t, t + 0.30)
                job.children = [
                    Span("graph.io.read_edge_list", t, t + 0.20),
                    Span("L", t + 0.20, t + 0.26),
                    Span("C", t + 0.26, t + 0.29),
                ]
                roots.append(job)
            return Trace(roots)

        diff = diff_runs(jobs(3), jobs(5))
        assert (diff.roots_a, diff.roots_b) == (3, 5)
        assert diff.total_a == pytest.approx(0.30)
        assert diff.ratio == pytest.approx(1.0)
        assert diff.moved_phases() == []
        assert "job" not in [p.label for p in diff.phases]
        text = format_diff(diff)
        assert "per root, R=3" in text and "per root, R=5" in text

    def test_single_root_traces_are_not_averaged(self):
        diff = diff_runs(
            Trace([Span("total", 0.0, 0.1)]),
            Trace([Span("total", 0.0, 0.1), Span("other", 0.2, 0.3)]),
        )
        assert (diff.roots_a, diff.roots_b) == (1, 1)
        assert diff.ratio == pytest.approx(1.0)
        assert "per root" not in format_diff(diff)

    def test_rejects_unknown_types(self):
        with pytest.raises(ConfigurationError, match="cannot diff"):
            diff_runs(42, 43)

    def test_attribution_when_nothing_moved(self):
        diff = diff_runs(_run(0.1, {}), _run(0.1, {}))
        assert "no phase or counter moved" in diff.attribution()


class TestFormatDiff:
    def test_renders_table_and_summary(self):
        a = _run(0.10, {"H1": 0.02, "H3": 0.05}, {"rounds_skipped": 1})
        b = _run(0.14, {"H1": 0.02, "H3": 0.09}, {"rounds_skipped": 0})
        text = format_diff(diff_runs(a, b, label_a="base", label_b="now"))
        assert "a: base" in text and "b: now" in text
        assert "1.40x" in text
        assert "H3" in text
        assert "rounds_skipped 1→0" in text

    def test_truncates_long_phase_lists(self):
        phases_a = {f"P{i}": 0.001 for i in range(30)}
        phases_b = {f"P{i}": 0.002 for i in range(30)}
        text = format_diff(diff_runs(_run(0.1, phases_a), _run(0.2, phases_b)))
        assert "more phases below threshold" in text


class TestAttributionMarkdown:
    def test_empty(self):
        assert "_no comparable runs_" in attribution_markdown([])

    def test_rows_sorted_worst_ratio_first(self):
        mild = diff_runs(_run(0.1, {"H1": 0.1}), _run(0.11, {"H1": 0.11}))
        bad = diff_runs(_run(0.1, {"H1": 0.1}), _run(0.2, {"H1": 0.2}))
        md = attribution_markdown([("mild", mild), ("bad", bad)])
        lines = md.splitlines()
        assert "| run | ratio | phase attribution | counters moved |" in lines
        bad_row = next(i for i, line in enumerate(lines) if "| bad |" in line)
        mild_row = next(i for i, line in enumerate(lines) if "| mild |" in line)
        assert bad_row < mild_row
        assert "2.00x" in lines[bad_row]
