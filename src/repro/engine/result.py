"""The unified connectivity result record.

Every algorithm dispatched through :mod:`repro.engine` returns a
:class:`CCResult`: the exact component labeling plus the union of all
instrumentation the individual algorithms collect — edge counters,
per-phase wall times, iteration statistics, and provenance (which
algorithm ran, with which parameters, on which backend).  Fields an
algorithm does not populate keep their zero defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nputil import sorted_unique
from repro.obs.trace import Trace
from repro.parallel.metrics import RunStats

__all__ = ["CCResult"]


@dataclass
class CCResult:
    """Outcome of a connected-components run, any algorithm, any backend.

    ``labels`` is the exact component labeling (root ids).  The remaining
    fields are instrumentation; which ones are populated depends on the
    algorithm:

    - **provenance** (all engine runs): ``algorithm``, ``backend``,
      ``params``;
    - **Afforest counters**: ``neighbor_rounds``, ``largest_label``,
      ``edges_sampled`` (processed in neighbour rounds), ``edges_final``
      (processed in the final phase), ``edges_skipped`` (avoided by
      component skipping), ``link_rounds``, ``compress_passes``;
    - **iterative counters** (SV, label propagation): ``iterations``,
      ``edges_processed``, ``max_tree_depth``, ``depth_per_iteration``;
    - **traversal counters** (BFS-CC, DOBFS-CC): ``bfs_steps``,
      ``top_down_steps``, ``bottom_up_steps``, ``edges_gathered``,
      ``step_edges``;
    - **uniform instrumentation**: ``trace`` (the structured span tree
      recorded when telemetry is on), ``phase_seconds`` (phase label ->
      wall seconds, derived from the trace when ``profile=True``),
      ``counters`` (miscellaneous named counters), ``run_stats``
      (work/span statistics when executed on a simulated machine).
    """

    labels: np.ndarray
    #: algorithm name the run was asked for.
    algorithm: str = ""
    #: ``kind`` of the execution backend ("vectorized" / "simulated").
    backend: str = ""
    #: resolved parameters the run used (fixed parameters + overrides).
    params: dict = field(default_factory=dict)

    # -- Afforest counters ------------------------------------------------ #
    neighbor_rounds: int = 0
    largest_label: int | None = None
    edges_sampled: int = 0
    edges_final: int = 0
    edges_skipped: int = 0
    link_rounds: list[int] = field(default_factory=list)
    #: per compress call, the most changing sweeps any block of
    #: ``compress_all`` needed (0 when π was already flat).
    compress_passes: list[int] = field(default_factory=list)

    # -- iterative counters (SV / label propagation) ---------------------- #
    iterations: int = 0
    edges_processed: int = 0  # directed edge examinations summed over iterations
    max_tree_depth: int = 0  # deepest tree observed before any shortcut
    depth_per_iteration: list[int] = field(default_factory=list)

    # -- traversal counters (BFS-CC / DOBFS-CC) --------------------------- #
    bfs_steps: int = 0  # total frontier expansions (serial rounds)
    top_down_steps: int = 0
    bottom_up_steps: int = 0
    edges_gathered: int = 0  # actual vectorized gather volume (DOBFS)
    #: edges examined per frontier expansion, in execution order.
    step_edges: list[int] | None = None

    # -- uniform instrumentation ------------------------------------------ #
    #: miscellaneous named counters (algorithm-specific extras).
    counters: dict[str, int] = field(default_factory=dict)
    #: phase label -> wall seconds, derived from ``trace`` when profiling.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: structured span tree of the run (None with telemetry disabled).
    trace: Trace | None = None
    run_stats: RunStats | None = None

    @property
    def num_components(self) -> int:
        """Number of distinct components in the labeling."""
        labels = self.labels
        n = labels.shape[0]
        if n == 0:
            return 0
        # Representative labelings (label[v] is a component root, so
        # label[label] == label) admit a sort-free count: the distinct
        # labels are exactly the fixed points.  Every finish in this
        # repo produces such a labeling, so the sorting fallback only
        # runs for exotic hand-built results.
        if int(labels.min()) >= 0 and int(labels.max()) < n:
            if np.array_equal(labels[labels], labels):
                idx = np.arange(n, dtype=labels.dtype)
                return int(np.count_nonzero(labels == idx))
        return int(sorted_unique(labels).shape[0])

    @property
    def edges_touched(self) -> int:
        """Directed edge slots examined by link phases."""
        return self.edges_sampled + self.edges_final

    @property
    def skip_fraction(self) -> float:
        """Fraction of final-phase edge slots avoided by skipping."""
        denom = self.edges_final + self.edges_skipped
        return self.edges_skipped / denom if denom else 0.0
