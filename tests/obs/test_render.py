"""Tests for the ASCII trace renderer."""

from repro.obs import Span, Trace, render_trace
from repro.obs.render import timeline_bar

from .test_export import sample_trace


class TestTimelineBar:
    def test_marks_interval_position(self):
        bar = timeline_bar([(2.0, 4.0)], 0.0, 8.0, 8)
        assert bar == "··██····"

    def test_nonempty_interval_marks_at_least_one_cell(self):
        bar = timeline_bar([(0.0, 1e-9)], 0.0, 10.0, 10)
        assert bar.count("█") >= 1

    def test_zero_total(self):
        assert timeline_bar([], 0.0, 0.0, 4) == "····"


class TestRenderTrace:
    def test_sections(self):
        text = render_trace(sample_trace())
        assert text.startswith("trace: sv [simulated, 2]")
        # Every main-track span appears in the table; worker rows appear
        # as tracks, not as tree rows.
        for label in ("total", "H1", "S1"):
            assert label in text
        assert "worker-0" in text and "worker-1" in text
        assert "rounds_skipped=2" in text
        assert "frontier_size" in text

    def test_respects_width(self):
        narrow = render_trace(sample_trace(), width=10)
        wide = render_trace(sample_trace(), width=60)
        assert len(narrow.splitlines()[3]) < len(wide.splitlines()[3])

    def test_empty_trace_renders(self):
        text = render_trace(Trace([]))
        assert text.startswith("trace:")

    def test_untracked_trace_has_no_worker_sections(self):
        trace = Trace([Span("total", 0.0, 1.0)])
        text = render_trace(trace)
        assert "worker" not in text


class TestGracefulDegradation:
    """Satellite: the renderer survives traces written by other tool
    versions — open spans, unknown attrs."""

    def test_open_span_renders_with_marker(self):
        root = Span("total", 0.0, 1.0)
        root.children.append(Span("H1", 0.0))  # never closed
        text = render_trace(Trace([root]))
        assert "(open)" in text

    def test_unknown_attrs_and_long_labels_stay_aligned(self):
        root = Span("total", 0.0, 1.0)
        root.children.append(
            Span(
                "some-very-long-unfamiliar-phase-label",
                0.0,
                0.5,
                attrs={"mystery": object()},
            )
        )
        text = render_trace(Trace([root]))
        assert "some-very-long-unfamiliar-phase-label" in text
