"""Extension E1 — distributed-memory connected components (paper future work).

Not a paper figure: the conclusions propose extending Afforest to
distributed memory; this bench runs Afforest (``kout+settle``) on the
engine's :class:`~repro.engine.backends.DistributedBackend` — labels
bit-identical to the single-machine solve at every world size, and
delta-exchange traffic that keeps every rank below the ``8n(R-1)`` bytes a
whole-array reduction would send (the bound ``repro.bench.dist_traffic``
gates).
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis import equivalent_labelings
from repro.bench.report import format_table
from repro.engine import DistributedBackend
from repro.generators import uniform_random_graph
from repro.unionfind import sequential_components

from conftest import register_report

RANKS = [1, 2, 4, 8, 16]
_SIZES = {"tiny": 2**10, "small": 2**13, "default": 2**15, "large": 2**16}


def solve(graph, ranks):
    """One delta-exchange Afforest solve: (labels, comm stats)."""
    backend = DistributedBackend(ranks=ranks)
    result = engine.run("afforest", graph, backend=backend)
    return result.labels, backend.comm.stats


@pytest.fixture(scope="module")
def sweep(size):
    n = _SIZES[size]
    g = uniform_random_graph(n, edge_factor=16, seed=0)
    reference = engine.run("afforest", g).labels
    rows = []
    results = {}
    for ranks in RANKS:
        labels, stats = solve(g, ranks)
        results[ranks] = (labels, stats)
        rows.append(
            [
                ranks,
                stats.supersteps,
                stats.messages,
                stats.bytes_sent,
                max(stats.sent_by_rank(ranks)),
                8 * n * (ranks - 1),
                bool(np.array_equal(labels, reference)),
            ]
        )
    text = format_table(
        f"Extension E1 — distributed Afforest, delta exchange (urand n={n})",
        [
            "ranks",
            "supersteps",
            "messages",
            "bytes",
            "max_rank_bytes",
            "bound_8n(R-1)",
            "exact",
        ],
        rows,
    )
    register_report("ext e1 distributed", text)
    return g, reference, results


def test_ext_distributed_shapes(sweep, benchmark):
    g, reference, results = sweep
    n = g.num_vertices
    assert equivalent_labelings(reference, sequential_components(g))

    for ranks, (labels, stats) in results.items():
        # Exact labels at every world size: the superstep merges reproduce
        # the single-machine min-labels bit for bit.
        assert np.array_equal(labels, reference), ranks
        if ranks == 1:
            assert stats.bytes_sent == 0
            continue
        # Every rank stays below the whole-array reduction's 8n(R-1) bytes.
        per_rank = stats.sent_by_rank(ranks)
        assert 0 < max(per_rank) < 8 * n * (ranks - 1), ranks

    benchmark(lambda: solve(g, 8))
