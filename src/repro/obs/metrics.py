"""Run metrics: counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is created per engine run (inside the
:class:`~repro.obs.trace.Tracer`) and snapshotted into the finished
:class:`~repro.obs.trace.Trace`.  Instruments are created on first use —
``registry.counter("rounds_skipped").inc()`` — and every accessor returns
a shared no-op instrument while the registry is disabled, so unprofiled
runs pay a single attribute check per recording site.

Histograms use *fixed* bucket boundaries chosen at creation (no dynamic
rebinning): cheap ``searchsorted`` inserts, stable summaries, and bucket
counts that can be merged across runs.  :data:`POW2_BUCKETS` suits
non-negative magnitudes spanning orders of magnitude (hook distances,
frontier sizes, superstep bytes).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "POW2_BUCKETS",
]

#: power-of-two upper bounds: 1, 2, 4, ..., 2**30.
POW2_BUCKETS: tuple[float, ...] = tuple(float(2**k) for k in range(31))


class Counter:
    """Monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative increments are a caller bug)."""
        self.value += amount


class Gauge:
    """Last-written named value (e.g. worker count, block count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value, replacing the previous one."""
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with running sum/min/max.

    ``buckets`` are ascending upper bounds; values above the last bound
    land in an implicit overflow bucket.  ``observe_many`` takes any
    array-like and bins it in one vectorised pass.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        self.name = name
        self.bounds = np.asarray(list(buckets), dtype=float)
        if self.bounds.size == 0 or np.any(np.diff(self.bounds) <= 0):
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"histogram {name!r} needs ascending non-empty buckets"
            )
        self.counts = np.zeros(self.bounds.size + 1, dtype=np.int64)
        self.total = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one value."""
        self.counts[int(np.searchsorted(self.bounds, value, side="left"))] += 1
        self.total += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of values in one vectorised pass."""
        arr = np.asarray(
            values if isinstance(values, np.ndarray) else list(values),
            dtype=float,
        )
        if arr.size == 0:
            return
        idx = np.searchsorted(self.bounds, arr, side="left")
        np.add.at(self.counts, idx, 1)
        self.total += int(arr.size)
        self.sum += float(arr.sum())
        self.min = min(self.min, float(arr.min()))
        self.max = max(self.max, float(arr.max()))

    def summary(self) -> dict[str, Any]:
        """JSON-ready snapshot: count, sum, min/max/mean, bucket counts.

        Bucket keys are the stringified upper bounds plus ``"+inf"`` for
        the overflow bucket; empty buckets are omitted to keep benchmark
        records compact.
        """
        buckets: dict[str, int] = {}
        for bound, count in zip(self.bounds, self.counts[:-1]):
            if count:
                buckets[f"{bound:g}"] = int(count)
        if self.counts[-1]:
            buckets["+inf"] = int(self.counts[-1])
        out: dict[str, Any] = {
            "count": self.total,
            "sum": self.sum,
            "buckets": buckets,
        }
        if self.total:
            out["min"] = self.min
            out["max"] = self.max
            out["mean"] = self.sum / self.total
        return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled registries."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None

    def observe_many(self, values: Iterable[float]) -> None:
        return None


_NULL = _NullInstrument()


class MetricsRegistry:
    """Named instruments for one run; no-op accessors while disabled."""

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str):
        """The counter registered under ``name`` (created on first use)."""
        if not self.enabled:
            return _NULL
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str):
        """The gauge registered under ``name`` (created on first use)."""
        if not self.enabled:
            return _NULL
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, buckets: Sequence[float] = POW2_BUCKETS):
        """The histogram under ``name``; ``buckets`` applies on creation."""
        if not self.enabled:
            return _NULL
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram(name, buckets)
        return hist

    # -- snapshots -------------------------------------------------------- #

    def counters_snapshot(self) -> dict[str, int]:
        """Counter values (counters with a zero value included)."""
        return {name: c.value for name, c in self._counters.items()}

    def gauges_snapshot(self) -> dict[str, float]:
        """Gauge values by name."""
        return {name: g.value for name, g in self._gauges.items()}

    def histogram_summaries(self) -> dict[str, dict[str, Any]]:
        """Every histogram's :meth:`Histogram.summary` by name."""
        return {name: h.summary() for name, h in self._histograms.items()}
