"""Tests for the JSONL and Chrome trace_event exporters and loaders."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    Span,
    Trace,
    load_trace,
    phase_label,
    trace_events,
    write_trace,
)


def sample_trace() -> Trace:
    root = Span("total", 100.0, 100.010)
    h1 = Span(phase_label("H", round=1), 100.0, 100.004)
    h1.children = [
        Span("H1", 100.001, 100.003, track="worker-0", attrs={"block": 0}),
        Span("H1", 100.001, 100.002, track="worker-1", attrs={"block": 1}),
    ]
    s1 = Span(phase_label("S", round=1), 100.004, 100.006)
    root.children = [h1, s1]
    return Trace(
        [root],
        counters={"rounds_skipped": 2},
        histograms={"frontier_size": {"count": 1, "sum": 1.5, "buckets": {"2": 1}}},
        meta={"algorithm": "sv", "backend": "simulated", "workers": 2},
    )


class TestChromeEvents:
    def test_is_valid_trace_event_list(self):
        events = trace_events(sample_trace())
        # Viewers need every event to carry ph/pid/tid.
        assert all({"ph", "pid", "tid"} <= set(e) for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 5  # total, H1, S1, 2 worker tasks

    def test_timestamps_rebased_to_microseconds(self):
        events = trace_events(sample_trace())
        total = next(e for e in events if e["name"] == "total")
        assert total["ts"] == pytest.approx(0.0)
        assert total["dur"] == pytest.approx(10_000.0)

    def test_worker_tracks_get_named_tids(self):
        events = trace_events(sample_trace())
        names = {
            e["tid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names[0] == "engine"
        assert names[1] == "worker-0"
        assert names[2] == "worker-1"
        worker_tids = {
            e["tid"] for e in events if e["ph"] == "X" and e["name"] == "H1"
            and e["tid"] != 0
        }
        assert worker_tids == {1, 2}

    def test_round_attr_exported(self):
        events = trace_events(sample_trace())
        h1 = next(
            e for e in events if e["ph"] == "X" and e["name"] == "H1"
            and e["tid"] == 0
        )
        assert h1["cat"] == "H"
        assert h1["args"]["round"] == 1


class TestRoundTrips:
    @pytest.mark.parametrize("format", ["jsonl", "chrome"])
    def test_round_trip(self, tmp_path, format):
        trace = sample_trace()
        path = tmp_path / f"trace.{format}"
        write_trace(trace, path, format=format)
        loaded = load_trace(path)
        assert loaded.counters == trace.counters
        assert loaded.histograms == trace.histograms
        assert loaded.meta == trace.meta
        assert loaded.tracks() == ["worker-0", "worker-1"]
        # Durations survive to microsecond precision in either format.
        for label, secs in trace.phase_seconds().items():
            assert loaded.phase_seconds()[label] == pytest.approx(
                secs, abs=1e-5
            )

    def test_chrome_rebuilds_nesting(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(sample_trace(), path, format="chrome")
        loaded = load_trace(path)
        (root,) = loaded.spans
        assert root.label == "total"
        assert [c.label for c in root.children if c.track is None] == [
            "H1", "S1",
        ]
        h1 = root.children[0]
        assert {c.track for c in h1.children} == {"worker-0", "worker-1"}

    def test_chrome_file_is_json_array(self, tmp_path):
        path = tmp_path / "t.json"
        write_trace(sample_trace(), path, format="chrome")
        data = json.loads(path.read_text())
        assert isinstance(data, list) and data

    def test_jsonl_file_is_line_oriented(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(sample_trace(), path, format="jsonl")
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines[0]["type"] == "meta"
        assert all(ln["type"] == "span" for ln in lines[1:])
        assert len(lines) == 1 + 5

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_trace(sample_trace(), tmp_path / "t", format="xml")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty"
        path.write_text("")
        with pytest.raises(ConfigurationError):
            load_trace(path)
