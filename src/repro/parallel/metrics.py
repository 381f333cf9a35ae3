"""Work/span accounting and the modeled-time cost model.

The simulated machine counts *shared-memory operations* per worker per
phase.  These kernels are memory-bound (the paper's Sec. V-C analysis is
entirely about π-array access patterns), so shared ops are the natural unit
of modeled time:

``T_p = Σ_phases ( max_w steps(phase, w) · τ  +  β )``

with ``τ`` the per-access cost and ``β`` a per-phase barrier/fork-join
overhead.  Strong-scaling curves (Fig. 8b) follow by running the same
algorithm on machines with different worker counts and comparing ``T_p``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class PhaseStats:
    """Counters for one parallel phase."""

    label: str
    worker_steps: np.ndarray  # shape (p,) shared ops per worker
    reads: int = 0
    writes: int = 0
    cas_attempts: int = 0
    cas_failures: int = 0

    @property
    def work(self) -> int:
        """Total shared ops across workers."""
        return int(self.worker_steps.sum())

    @property
    def span(self) -> int:
        """Critical-path shared ops (busiest worker)."""
        return int(self.worker_steps.max()) if self.worker_steps.size else 0

    @property
    def imbalance(self) -> float:
        """span / (work / p): 1.0 is perfectly balanced."""
        p = self.worker_steps.shape[0]
        if self.work == 0:
            return 1.0
        return self.span / (self.work / p)


@dataclass
class RunStats:
    """Counters for a full algorithm execution on the simulated machine."""

    num_workers: int
    phases: list[PhaseStats] = field(default_factory=list)

    @property
    def total_work(self) -> int:
        return sum(ph.work for ph in self.phases)

    @property
    def total_span(self) -> int:
        return sum(ph.span for ph in self.phases)

    def phase(self, label: str) -> PhaseStats:
        """First phase with the given label (KeyError if absent)."""
        for ph in self.phases:
            if ph.label == label:
                return ph
        raise KeyError(f"no phase labeled {label!r}")

    def merged_by_label(self) -> dict[str, PhaseStats]:
        """Aggregate repeated phases (e.g. multiple link rounds) by label."""
        out: dict[str, PhaseStats] = {}
        for ph in self.phases:
            if ph.label not in out:
                out[ph.label] = PhaseStats(
                    ph.label, ph.worker_steps.copy(), ph.reads, ph.writes,
                    ph.cas_attempts, ph.cas_failures,
                )
            else:
                acc = out[ph.label]
                acc.worker_steps = acc.worker_steps + ph.worker_steps
                acc.reads += ph.reads
                acc.writes += ph.writes
                acc.cas_attempts += ph.cas_attempts
                acc.cas_failures += ph.cas_failures
        return out


@dataclass(frozen=True)
class WorkSpanModel:
    """Converts :class:`RunStats` into modeled execution time.

    Parameters
    ----------
    tau:
        Cost of one shared-memory operation (arbitrary time unit).
    beta:
        Fork-join/barrier overhead charged once per phase; makes scaling
        curves saturate realistically instead of scaling forever.
    """

    tau: float = 1.0
    beta: float = 0.0

    def phase_time(self, phase: PhaseStats) -> float:
        return phase.span * self.tau + self.beta

    def time(self, stats: RunStats) -> float:
        """Modeled wall time of the run."""
        return float(sum(self.phase_time(ph) for ph in stats.phases))

    def speedup(self, serial: RunStats, parallel: RunStats) -> float:
        """Modeled speedup of ``parallel`` over ``serial``."""
        t1 = self.time(serial)
        tp = self.time(parallel)
        return t1 / tp if tp > 0 else float("inf")

    def projected_time(
        self, phase_works: "list[int] | np.ndarray", num_workers: int
    ) -> float:
        """Modeled time of a run described only by per-phase work totals.

        For traversal algorithms (BFS/DOBFS/LP) whose per-phase work is a
        flat edge count with no per-worker breakdown, assume perfect
        balance within a phase: ``T_p = Σ (work_i / p · τ + β)``, with
        phase time floored at one operation.  This is the projection used
        to place the traversal baselines on the Fig. 8b scaling plot.
        """
        if num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        total = 0.0
        for w in phase_works:
            total += max(float(w) / num_workers, 1.0) * self.tau + self.beta
        return total
