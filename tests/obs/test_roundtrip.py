"""Property-style JSONL ⇄ Chrome round-trip tests for trace export.

Traces are generated from seeded randomness so every run exercises the
same family of shapes: multi-letter phase labels (``HS<i>``), skipped rounds
(gaps in the round numbering), worker-track spans, counters, gauges,
and histogram summaries.  Both exporters must reproduce the phase
timings, metric snapshots, and track structure after a round trip.
"""

import random

import pytest

from repro.obs import load_trace, phase_label, write_trace
from repro.obs.trace import Span, Trace

SEEDS = range(12)


def _random_trace(seed: int) -> Trace:
    rng = random.Random(seed)
    t = 0.0
    root = Span("total", t)
    rounds = rng.randrange(1, 7)
    round_no = 0
    for _ in range(rounds):
        # Skipped rounds: gaps in the numbering, like the engine's
        # rounds_skipped fast path produces.
        round_no += rng.randrange(1, 3)
        base = rng.choice(["H", "HS", "P", "T"])
        dur = rng.randrange(1, 50) * 1e-4
        span = Span(
            phase_label(base, round=round_no),
            t,
            t + dur,
            attrs={"frontier": rng.randrange(1, 1000)},
        )
        # Worker tracks: some phases fan out into per-worker blocks.
        if rng.random() < 0.6:
            workers = rng.randrange(1, 4)
            wt = t
            for w in range(workers):
                wdur = dur / (workers + 1)
                span.children.append(
                    Span(str(span.label), wt, wt + wdur, track=f"worker-{w}")
                )
                wt += wdur
        root.children.append(span)
        t += dur + rng.randrange(1, 5) * 1e-5
    if rng.random() < 0.5:
        root.children.append(
            Span(phase_label("P", final=True), t, t + 1e-4)
        )
        t += 1.5e-4
    root.t1 = t
    counters = {"rounds_skipped": rng.randrange(5), "bytes_allocated": 1024}
    gauges = {"label_dtype_bits": float(rng.choice([32, 64]))}
    histograms = {
        "frontier": {
            "count": 4,
            "sum": 100.0,
            "min": 1.0,
            "max": 64.0,
            "mean": 25.0,
            "buckets": {"16.0": 3, "+inf": 1},
        }
    }
    return Trace(
        [root],
        counters=counters,
        gauges=gauges,
        histograms=histograms,
        meta={"algorithm": "sv", "backend": "process", "workers": 2},
    )


def _labels_by_depth(trace: Trace) -> list[tuple[str, int, str | None]]:
    return [(s.label, d, s.track) for s, d in trace.walk()]


@pytest.mark.parametrize("seed", SEEDS)
def test_jsonl_round_trip_is_exact(tmp_path, seed):
    trace = _random_trace(seed)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path, format="jsonl")
    back = load_trace(path)
    # JSON floats round-trip exactly in Python, so the whole tree does.
    assert back.to_dict() == trace.to_dict()


@pytest.mark.parametrize("seed", SEEDS)
def test_chrome_round_trip_preserves_structure(tmp_path, seed):
    trace = _random_trace(seed)
    path = tmp_path / "trace.json"
    write_trace(trace, path, format="chrome")
    back = load_trace(path)
    # Chrome rebases timestamps and stores microseconds, so timings are
    # compared with a tolerance; structure and snapshots are exact.
    assert _labels_by_depth(back) == _labels_by_depth(trace)
    assert back.counters == trace.counters
    assert back.gauges == trace.gauges
    assert back.histograms == trace.histograms
    assert back.meta == trace.meta
    assert back.tracks() == trace.tracks()
    want = trace.phase_seconds()
    got = back.phase_seconds()
    assert set(got) == set(want)
    for label, seconds in want.items():
        assert got[label] == pytest.approx(seconds, abs=1e-6)


@pytest.mark.parametrize("seed", SEEDS)
def test_formats_agree_on_phase_seconds(tmp_path, seed):
    trace = _random_trace(seed)
    jsonl = tmp_path / "t.jsonl"
    chrome = tmp_path / "t.json"
    write_trace(trace, jsonl, format="jsonl")
    write_trace(trace, chrome, format="chrome")
    a = load_trace(jsonl).phase_seconds()
    b = load_trace(chrome).phase_seconds()
    assert set(a) == set(b)
    for label in a:
        assert a[label] == pytest.approx(b[label], abs=1e-6)

