"""Tests for counters, gauges, and fixed-bucket histograms."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    POW2_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry(True)
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.counters_snapshot() == {"hits": 5}

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry(True)
        reg.gauge("workers").set(2)
        reg.gauge("workers").set(4)
        assert reg.gauges_snapshot() == {"workers": 4.0}

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry(True)
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")


class TestDisabledRegistry:
    def test_all_accessors_are_noops(self):
        reg = MetricsRegistry(False)
        reg.counter("a").inc(10)
        reg.gauge("b").set(1.0)
        reg.histogram("c").observe(2.0)
        reg.histogram("c").observe_many([1, 2, 3])
        assert reg.counters_snapshot() == {}
        assert reg.gauges_snapshot() == {}
        assert reg.histogram_summaries() == {}

    def test_null_instrument_is_shared(self):
        reg = MetricsRegistry(False)
        assert reg.counter("a") is reg.histogram("b") is reg.gauge("c")


class TestHistogram:
    def test_binning(self):
        h = Histogram("d", (1.0, 2.0, 4.0))
        h.observe_many([0.5, 1.0, 1.5, 3.0, 100.0])
        s = h.summary()
        assert s["count"] == 5
        # searchsorted(left): a value equal to a bound lands in that bucket.
        assert s["buckets"] == {"1": 2, "2": 1, "4": 1, "+inf": 1}
        assert s["min"] == 0.5
        assert s["max"] == 100.0
        assert s["mean"] == pytest.approx(106.0 / 5)

    def test_observe_matches_observe_many(self):
        bounds = (1.0, 1.25, 2.0, 10.0)
        a = Histogram("a", bounds)
        b = Histogram("b", bounds)
        values = [1.0, 1.2, 2.5, 11.0]
        for v in values:
            a.observe(v)
        b.observe_many(np.asarray(values))
        assert a.summary() == b.summary()

    def test_empty_batch_is_noop(self):
        h = Histogram("h", POW2_BUCKETS)
        h.observe_many([])
        assert h.summary() == {"count": 0, "sum": 0.0, "buckets": {}}

    def test_empty_summary_omits_stats(self):
        s = Histogram("h", (1.0,)).summary()
        assert "mean" not in s and "min" not in s

    def test_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", ())
        with pytest.raises(ConfigurationError):
            Histogram("h", (2.0, 1.0))

    def test_pow2_buckets_ascend(self):
        assert list(POW2_BUCKETS) == sorted(POW2_BUCKETS)
        assert POW2_BUCKETS[0] == 1.0

    def test_registry_snapshot(self):
        reg = MetricsRegistry(True)
        reg.histogram("hook_distance", POW2_BUCKETS).observe_many([1, 5, 9])
        summaries = reg.histogram_summaries()
        assert summaries["hook_distance"]["count"] == 3
