"""Fig. 7 data reduction: π-array access density and per-thread structure.

The simulated machine's :class:`~repro.parallel.memtrace.MemoryTrace`
captures every shared access as ``(address, worker, phase, op)``.  This
module reduces the raw stream into the quantities Fig. 7 visualises:

- the **address histogram** per phase (the heat-map's marginal): how often
  each region of π was touched;
- **per-worker** event counts (the scatter plot's row densities);
- a **sequentiality score** per phase: the fraction of successive accesses
  by the same worker that move forward by at most a small stride —
  Afforest's neighbour rounds score near 1 (streaming through π), SV's
  hooks score near the random baseline;
- **low-address concentration**: fraction of accesses landing in the first
  ``root_region`` fraction of π, capturing "accesses with high locality
  near the beginning of π (corresponding to tree roots)".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.nputil import sorted_unique
from repro.parallel.memtrace import TraceArrays


@dataclass(frozen=True)
class PhaseAccess:
    """Reduction of one phase's events."""

    label: str
    events: int
    address_histogram: np.ndarray
    per_worker: np.ndarray
    sequentiality: float
    low_address_fraction: float


@dataclass(frozen=True)
class AccessSummary:
    """Full Fig. 7 reduction of a trace."""

    num_vertices: int
    bins: int
    phases: list[PhaseAccess] = field(default_factory=list)

    @property
    def total_events(self) -> int:
        return sum(p.events for p in self.phases)

    def phase(self, label: str) -> PhaseAccess:
        for p in self.phases:
            if p.label == label:
                return p
        raise KeyError(f"no phase labeled {label!r}")

    def combined_histogram(self) -> np.ndarray:
        """Address histogram over all phases (the full heat-map marginal)."""
        out = np.zeros(self.bins, dtype=np.int64)
        for p in self.phases:
            out += p.address_histogram
        return out


def _sequentiality(
    addresses: np.ndarray, workers: np.ndarray, max_stride: int
) -> float:
    """Fraction of consecutive access pairs *within each worker's own
    stream* that move forward by at most ``max_stride`` addresses.

    Each worker's events are extracted in order (the global trace preserves
    per-worker order), so the measure reflects what that worker's cache
    sees, independent of how workers interleave globally.
    """
    if addresses.shape[0] < 2:
        return 1.0
    ok = 0
    pairs = 0
    for w in sorted_unique(workers):
        a = addresses[workers == w]
        if a.shape[0] < 2:
            continue
        delta = a[1:] - a[:-1]
        ok += int(((delta >= 0) & (delta <= max_stride)).sum())
        pairs += a.shape[0] - 1
    return ok / pairs if pairs else 1.0


def reduce_trace(
    trace: TraceArrays,
    num_vertices: int,
    *,
    bins: int = 64,
    max_stride: int = 8,
    root_region: float = 0.1,
) -> AccessSummary:
    """Reduce a finalized memory trace into the Fig. 7 summary.

    Parameters
    ----------
    trace:
        Output of ``MemoryTrace.finalize()``.
    num_vertices:
        Length of the traced π array (address space).
    bins:
        Histogram buckets over the address space.
    max_stride:
        Forward-stride threshold of the sequentiality score.
    root_region:
        Fraction of the low address space counted as the "root region".
    """
    if num_vertices < 1:
        raise ConfigurationError("num_vertices must be >= 1")
    if not 0.0 < root_region <= 1.0:
        raise ConfigurationError("root_region must lie in (0, 1]")
    edges = np.linspace(0, num_vertices, bins + 1)
    low_cut = root_region * num_vertices
    num_workers = int(trace.worker.max()) + 1 if trace.num_events else 1

    phases: list[PhaseAccess] = []
    for idx, label in enumerate(trace.phase_labels):
        sel = trace.phase == idx
        addr = trace.address[sel]
        workers = trace.worker[sel]
        hist, _ = np.histogram(addr, bins=edges)
        per_worker = np.bincount(
            workers.astype(np.int64), minlength=num_workers
        )
        low_frac = (
            float(np.count_nonzero(addr < low_cut)) / addr.shape[0]
            if addr.shape[0]
            else 0.0
        )
        phases.append(
            PhaseAccess(
                label=label,
                events=int(addr.shape[0]),
                address_histogram=hist.astype(np.int64),
                per_worker=per_worker.astype(np.int64),
                sequentiality=_sequentiality(addr, workers, max_stride),
                low_address_fraction=low_frac,
            )
        )
    return AccessSummary(num_vertices=num_vertices, bins=bins, phases=phases)
