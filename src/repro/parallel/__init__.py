"""Simulated parallel machine: deterministic interleaving, CAS, tracing.

The paper evaluates on 20-core CPUs and a GPU; this substrate replaces the
hardware with an explicit execution model so that every claim the paper
derives from hardware behaviour (memory locality, CAS contention, strong
scaling) is measured from first principles:

- :class:`~repro.parallel.machine.SimulatedMachine` runs *kernel generators*
  over partitioned index ranges, interleaving workers at shared-memory-
  operation granularity (deterministic round-robin or seeded random);
  :meth:`~repro.parallel.machine.KernelContext.cas` is its compare-and-swap,
  with contention counting;
- :class:`~repro.parallel.memtrace.MemoryTrace` records every π access for
  the Fig. 7 heatmaps;
- :class:`~repro.parallel.metrics.WorkSpanModel` converts per-worker step
  counts into modeled execution times ``T_p = max_w steps_w × τ`` per phase.
"""

from repro.parallel.machine import KernelContext, SimulatedMachine
from repro.parallel.memtrace import MemoryTrace
from repro.parallel.metrics import PhaseStats, RunStats, WorkSpanModel
from repro.parallel.scheduler import partition_indices

__all__ = [
    "KernelContext",
    "SimulatedMachine",
    "MemoryTrace",
    "PhaseStats",
    "RunStats",
    "WorkSpanModel",
    "partition_indices",
]
