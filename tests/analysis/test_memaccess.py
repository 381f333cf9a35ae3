"""Tests for the Fig. 7 memory-access reduction."""

import numpy as np
import pytest

from repro import engine
from repro.analysis.memaccess import reduce_trace
from repro.engine import SimulatedBackend
from repro.errors import ConfigurationError
from repro.generators import uniform_random_graph
from repro.parallel import MemoryTrace, SimulatedMachine
from repro.parallel.memtrace import OP_READ, OP_WRITE


def synthetic_trace(events, labels):
    """events: list of (addr, worker, phase_idx)."""
    t = MemoryTrace()
    current = -1
    for addr, worker, phase in events:
        while current < phase:
            current += 1
            t.begin_phase(labels[current])
        t.record(addr, worker, OP_READ)
    # Register any trailing phases.
    while current < len(labels) - 1:
        current += 1
        t.begin_phase(labels[current])
    return t.finalize()


class TestReduction:
    def test_histogram_and_counts(self):
        ta = synthetic_trace(
            [(0, 0, 0), (1, 0, 0), (63, 1, 0), (10, 0, 1)], ["a", "b"]
        )
        summ = reduce_trace(ta, 64, bins=4)
        a = summ.phase("a")
        assert a.events == 3
        assert a.address_histogram.sum() == 3
        assert a.per_worker.tolist() == [2, 1]
        assert summ.phase("b").events == 1
        assert summ.total_events == 4

    def test_sequential_stream_scores_high(self):
        ta = synthetic_trace([(i, 0, 0) for i in range(50)], ["seq"])
        summ = reduce_trace(ta, 64)
        assert summ.phase("seq").sequentiality == 1.0

    def test_random_stream_scores_low(self):
        rng = np.random.default_rng(0)
        ta = synthetic_trace(
            [(int(rng.integers(0, 4096)), 0, 0) for _ in range(300)], ["rnd"]
        )
        summ = reduce_trace(ta, 4096)
        assert summ.phase("rnd").sequentiality < 0.2

    def test_interleaved_workers_scored_independently(self):
        # Two workers each streaming sequentially, interleaved globally.
        events = []
        for i in range(40):
            events.append((i, 0, 0))
            events.append((100 + i, 1, 0))
        summ = reduce_trace(synthetic_trace(events, ["x"]), 256)
        assert summ.phase("x").sequentiality == 1.0

    def test_low_address_fraction(self):
        events = [(i, 0, 0) for i in range(10)] + [(90, 0, 0)] * 10
        summ = reduce_trace(synthetic_trace(events, ["x"]), 100, root_region=0.1)
        assert summ.phase("x").low_address_fraction == pytest.approx(0.5)

    def test_missing_phase_raises(self):
        summ = reduce_trace(synthetic_trace([], []), 16)
        with pytest.raises(KeyError):
            summ.phase("nope")

    def test_rejects_bad_args(self):
        ta = synthetic_trace([], [])
        with pytest.raises(ConfigurationError):
            reduce_trace(ta, 0)
        with pytest.raises(ConfigurationError):
            reduce_trace(ta, 10, root_region=0.0)


class TestPaperShape:
    """Fig. 7's qualitative claims, measured on real traces."""

    @pytest.fixture(scope="class")
    def traces(self):
        g = uniform_random_graph(512, edge_factor=8, seed=0)
        out = {}
        for name, runner in (
            (
                "afforest",
                lambda m: engine.run(
                    "afforest", g, backend=SimulatedBackend(m)
                ),
            ),
            ("sv", lambda m: engine.run("sv", g, backend=SimulatedBackend(m))),
        ):
            trace = MemoryTrace()
            m = SimulatedMachine(4, trace=trace)
            runner(m)
            out[name] = reduce_trace(trace.finalize(), g.num_vertices)
        return out

    def test_afforest_link_rounds_sequential(self, traces):
        """Neighbour rounds stream π: high sequentiality on the reads."""
        af = traces["afforest"]
        assert af.phase("I").sequentiality > 0.9
        assert af.phase("L0").sequentiality > 0.3

    def test_sv_hook_random(self, traces):
        """SV's hook phase scatters across π."""
        sv = traces["sv"]
        hook = sv.phase("H1")
        af_l0 = traces["afforest"].phase("L0")
        assert hook.sequentiality < af_l0.sequentiality

    def test_afforest_concentrates_on_roots(self, traces):
        """Later Afforest phases hit the low-address (root) region more
        than the uniform 10% baseline."""
        af = traces["afforest"]
        assert af.phase("L1").low_address_fraction > 0.2

    def test_sv_total_accesses_higher(self, traces):
        assert traces["sv"].total_events > traces["afforest"].total_events
