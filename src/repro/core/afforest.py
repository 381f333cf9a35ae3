"""The Afforest algorithm (paper Fig. 5) — engine entry points.

Pipeline:

1. initialise π self-pointing;
2. ``neighbor_rounds`` rounds of *neighbour sampling*: round ``r`` links
   every vertex to its ``r``-th stored neighbour, followed by a compress —
   O(|V|) work per round, building most of each component;
3. probabilistically identify the largest intermediate component by
   sampling π (:mod:`repro.core.sampling`);
4. *final link phase*: every vertex not already in the giant component
   links its remaining neighbours (``neighbor_rounds``-th onward) — giant-
   component vertices are skipped wholesale, which is safe by Theorem 3
   because their unprocessed edges are either internal (redundant) or
   reachable from the non-skipped endpoint;
5. final compress: π becomes the component labeling.

The pipeline itself is implemented exactly once, as the
canonical ``kout+settle`` plan (:mod:`repro.engine.plan`), against the
:class:`~repro.engine.backends.ExecutionBackend` primitives;
:func:`afforest` here is the stable vectorized entry point (wall-clock
benchmarks).  For other substrates call the engine directly, e.g.
``engine.run("afforest", graph, backend=SimulatedBackend(machine))``.
"""

from __future__ import annotations

from repro.constants import (
    DEFAULT_NEIGHBOR_ROUNDS,
    DEFAULT_SKIP_SAMPLE_SIZE,
)

# Only the leaf result module is imported eagerly: this module is pulled in
# by ``repro.core.__init__``, which the engine's backends import for the
# compress/link kernels — importing ``repro.engine`` itself here would
# close that cycle, so the engine entry points are resolved at call time.
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

#: Back-compat alias — Afforest runs return the unified engine record.
AfforestResult = CCResult


def afforest(
    graph: CSRGraph,
    *,
    neighbor_rounds: int = DEFAULT_NEIGHBOR_ROUNDS,
    skip_largest: bool = True,
    sample_size: int = DEFAULT_SKIP_SAMPLE_SIZE,
    seed: int = 0,
    sampling: str = "first",
    profile: bool = False,
) -> CCResult:
    """Run Afforest (vectorized) and return the exact CC labeling.

    Parameters
    ----------
    graph:
        Symmetric CSR graph.
    neighbor_rounds:
        Neighbour-sampling rounds before the final phase (paper default 2).
    skip_largest:
        Enable large-component skipping (Sec. IV-D).  Disabling reproduces
        the "Afforest (no skip)" configuration of Figs. 7b/8b.
    sample_size:
        π probes used to identify the giant component.
    seed:
        RNG seed for the probabilistic component search (and for the
        ``random`` sampling mode).
    sampling:
        ``first`` (paper default: the first stored neighbours, whose slots
        the final phase can skip) or ``random`` (a random neighbour per
        vertex per round; untrackable, so the final phase reprocesses every
        slot — the trade-off Sec. VI-A cites for choosing ``first``).
    profile:
        Record per-phase wall seconds into ``result.phase_seconds``
        (labels match the simulated driver: L<r>/C<r>/F/H/C*).
    """
    from repro import engine

    return engine.run(
        "afforest",
        graph,
        profile=profile,
        neighbor_rounds=neighbor_rounds,
        skip_largest=skip_largest,
        sample_size=sample_size,
        seed=seed,
        sampling=sampling,
    )
