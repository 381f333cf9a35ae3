"""Unit tests for work/span accounting and the cost model."""

import numpy as np
import pytest

from repro.parallel.metrics import PhaseStats, RunStats, WorkSpanModel


def phase(label, steps, **kw):
    return PhaseStats(label, np.asarray(steps, dtype=np.int64), **kw)


class TestPhaseStats:
    def test_work_and_span(self):
        ph = phase("p", [3, 5, 2])
        assert ph.work == 10
        assert ph.span == 5

    def test_imbalance(self):
        ph = phase("p", [5, 5])
        assert ph.imbalance == 1.0
        ph2 = phase("p", [10, 0])
        assert ph2.imbalance == 2.0

    def test_empty_phase(self):
        ph = phase("p", [0, 0])
        assert ph.span == 0
        assert ph.imbalance == 1.0


class TestRunStats:
    def test_totals(self):
        rs = RunStats(2, [phase("a", [1, 2]), phase("b", [3, 4])])
        assert rs.total_work == 10
        assert rs.total_span == 6

    def test_phase_lookup(self):
        rs = RunStats(1, [phase("a", [1])])
        assert rs.phase("a").work == 1
        with pytest.raises(KeyError):
            rs.phase("zz")

    def test_merged_by_label(self):
        rs = RunStats(
            2,
            [
                phase("link", [1, 2], reads=3),
                phase("compress", [1, 1]),
                phase("link", [2, 2], reads=4),
            ],
        )
        merged = rs.merged_by_label()
        assert merged["link"].work == 7
        assert merged["link"].reads == 7
        assert merged["compress"].work == 2


class TestWorkSpanModel:
    def test_time_sums_spans(self):
        rs = RunStats(2, [phase("a", [4, 2]), phase("b", [1, 3])])
        model = WorkSpanModel(tau=2.0, beta=10.0)
        assert model.time(rs) == (4 * 2 + 10) + (3 * 2 + 10)

    def test_speedup(self):
        serial = RunStats(1, [phase("a", [100])])
        par = RunStats(4, [phase("a", [25, 25, 25, 25])])
        model = WorkSpanModel()
        assert model.speedup(serial, par) == pytest.approx(4.0)

    def test_beta_caps_scaling(self):
        """With barrier overhead, doubling workers beyond saturation stops
        helping — the Amdahl behaviour Fig. 8b's flattening shows."""
        model = WorkSpanModel(tau=1.0, beta=1000.0)
        t8 = model.time(RunStats(8, [phase("a", [125] * 8)]))
        t16 = model.time(RunStats(16, [phase("a", [63] * 16)]))
        assert t16 / t8 > 0.9  # barely improves

    def test_zero_time_speedup(self):
        model = WorkSpanModel()
        empty = RunStats(1, [])
        assert model.speedup(empty, empty) == float("inf")
