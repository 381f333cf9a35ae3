"""Timed execution helpers used by the ``benchmarks/`` harness.

The paper reports "the median running time ... over 16 measurements if the
runtime is below 20 minutes, and the median of 3 measurements otherwise";
:func:`median_time` follows the same protocol scaled to this substrate
(median of ``repeats``, fewer when a single run is slow).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import engine
from repro.graph.csr import CSRGraph
from repro.obs import Trace
from repro.obs.ledger import RunLedger, record_from_result, resolve_ledger


@dataclass
class BenchmarkRecord:
    """One (dataset, algorithm) measurement.

    ``extra`` holds JSON-ready instrumentation from the profiled sample
    (counters, ``phase_seconds``, histogram summaries);
    ``trace`` keeps the full span tree of that sample for exporters and
    is deliberately outside ``extra`` so JSON reports stay flat.
    """

    dataset: str
    algorithm: str
    median_seconds: float
    p25_seconds: float
    p75_seconds: float
    samples: list[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    trace: Trace | None = None
    #: execution substrate the samples ran on ("vectorized" / "simulated"
    #: / "distributed") and its worker count (None unless one was set), so
    #: reports can group records without re-parsing kwargs.
    backend: str = "vectorized"
    workers: int | None = None

    def speedup_over(self, other: "BenchmarkRecord") -> float:
        """How much faster this record is than ``other``."""
        if self.median_seconds <= 0:
            return float("inf")
        return other.median_seconds / self.median_seconds


def median_time(
    fn: Callable[[], object],
    *,
    repeats: int = 16,
    slow_threshold: float = 2.0,
    slow_repeats: int = 3,
) -> tuple[float, float, float, list[float]]:
    """Median / 25th / 75th percentile runtime of ``fn``.

    A first timing decides the protocol: below ``slow_threshold`` seconds
    run ``repeats`` samples, otherwise only ``slow_repeats`` (the paper's
    16-vs-3 rule scaled down).
    """
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    n = repeats if first < slow_threshold else slow_repeats
    samples = [first]
    for _ in range(n - 1):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    arr = np.asarray(samples)
    return (
        float(np.median(arr)),
        float(np.percentile(arr, 25)),
        float(np.percentile(arr, 75)),
        samples,
    )


def run_algorithm(
    graph: CSRGraph,
    algorithm: str,
    dataset: str = "graph",
    *,
    repeats: int = 16,
    ledger: RunLedger | str | None = None,
    **kwargs,
) -> BenchmarkRecord:
    """Benchmark one algorithm on one graph with the paper's protocol.

    Dispatches through the engine registry; the first sample runs with
    phase instrumentation enabled and its result populates
    ``BenchmarkRecord.extra`` (component count, edge-work counters, and
    ``phase_seconds`` — the per-phase wall-time breakdown printed by
    ``python -m repro compare --profile``).

    With ``ledger`` set (a :class:`~repro.obs.ledger.RunLedger` or a
    path), one ``kind="bench"`` run record is appended per call: the
    median wall time over all samples next to the profiled sample's
    phase breakdown, counters, gauges, and histogram summaries.  The
    record's run id lands in ``extra["run_id"]`` so reports can point
    back at the ledger entry.
    """
    results: list[engine.CCResult] = []

    def _sample() -> None:
        # Only the first sample pays the (small) instrumentation cost; the
        # remaining timed runs execute the bare pipeline.
        results.append(
            engine.run(algorithm, graph, profile=not results, **kwargs)
        )

    med, p25, p75, samples = median_time(_sample, repeats=repeats)
    first = results[0]
    extra: dict = {"num_components": first.num_components}
    if first.plan:
        # Plan provenance: which sampling+finish composition actually ran
        # (for "auto", the plan the probes selected).
        extra["plan"] = first.plan
    if first.edges_touched:
        extra["edges_touched"] = first.edges_touched
        extra["edges_skipped"] = first.edges_skipped
    if first.edges_processed:
        extra["edges_processed"] = first.edges_processed
    if first.iterations:
        extra["iterations"] = first.iterations
    if first.counters:
        # Profiled-sample counters (rounds_skipped, bytes_allocated,
        # fused_passes, ...): the optimization observables
        # the perf gate and the smoke report's round/allocation columns
        # are built from.
        extra["counters"] = {k: int(v) for k, v in first.counters.items()}
    if first.phase_seconds:
        extra["phase_seconds"] = dict(first.phase_seconds)
    if first.trace is not None and first.trace.histograms:
        extra["histograms"] = first.trace.histograms
    backend_obj = kwargs.get("backend")
    workers = getattr(backend_obj, "workers", None)
    if workers is None:
        workers = kwargs.get("workers")
    book = resolve_ledger(ledger) if ledger is not None else None
    if book is not None:
        run_record = record_from_result(
            first,
            graph=graph,
            kind="bench",
            seconds=med,
            meta={
                "dataset": dataset,
                "samples": len(samples),
                "repeats": repeats,
            },
        )
        if run_record.workers is None:
            run_record.workers = workers
        book.append(run_record)
        extra["run_id"] = run_record.run_id
    return BenchmarkRecord(
        dataset=dataset,
        algorithm=algorithm,
        median_seconds=med,
        p25_seconds=p25,
        p75_seconds=p75,
        samples=samples,
        extra=extra,
        trace=first.trace,
        backend=first.backend or "vectorized",
        workers=workers,
    )

