"""Distributed-memory connected components (the paper's future work).

Demonstrates the engine's distributed substrate: each simulated rank
holds one contiguous, edge-balanced block of the CSR edges, and every
algorithm runs as BSP supersteps that exchange only changed-label
deltas (index+value pairs, switching to bitmap or dense encodings as
density grows — see docs/distributed.md).
The backend counts supersteps and meters every byte per rank pair, so
the communication behaviour is measurable.

Shows the property that makes the distributed extension attractive:
traffic tracks the labels that *changed* (O(n)-ish per solve), not the
edge count, and stays far below shipping whole parent arrays around.

Run:  python examples/distributed_solve.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro import engine
from repro.engine.backends import DistributedBackend
from repro.generators import uniform_random_graph


def solve(graph, ranks: int):
    """One delta-exchange Afforest solve; returns (labels, comm stats)."""
    backend = DistributedBackend(ranks=ranks)
    result = engine.run("afforest", graph, backend=backend)
    return result.labels, backend.comm.stats


def main() -> None:
    graph = uniform_random_graph(1 << 14, edge_factor=16, seed=0)
    reference = repro.connected_components(graph)
    print(
        f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges\n"
    )

    # ------------------------------------------------------------------ #
    # 1. World sizes: exactness everywhere, bounded superstep counts.
    # ------------------------------------------------------------------ #
    print(
        f"{'ranks':>6} {'supersteps':>13} {'traffic_MB':>11} "
        f"{'bytes/vertex':>13} {'exact':>6}"
    )
    for ranks in (1, 2, 4, 8, 16):
        labels, stats = solve(graph, ranks)
        exact = bool(
            np.array_equal(
                repro.analysis.canonical_labels(labels),
                repro.analysis.canonical_labels(reference),
            )
        )
        per_vertex = stats.bytes_sent / graph.num_vertices
        print(
            f"{ranks:>6} {stats.supersteps:>13} "
            f"{stats.bytes_sent / 1e6:>11.2f} "
            f"{per_vertex:>13.1f} {str(exact):>6}"
        )

    # ------------------------------------------------------------------ #
    # 2. Traffic tracks label churn, not edge density.
    # ------------------------------------------------------------------ #
    print("\ntraffic vs density (8 ranks):")
    for ef in (4, 16, 64):
        g = uniform_random_graph(1 << 13, edge_factor=ef, seed=1)
        _, stats = solve(g, 8)
        print(
            f"  edge_factor {ef:>3}: {g.num_edges:>8} edges -> "
            f"{stats.bytes_sent / 1e6:.2f} MB moved"
        )

    # ------------------------------------------------------------------ #
    # 3. Edge balance: the CSR blocks are cut at even edge counts, so
    #    every rank holds about m/R edges whatever the degree skew.
    # ------------------------------------------------------------------ #
    print("\nblock edge balance (8 ranks, directed edges per rank):")
    counts = DistributedBackend(ranks=8).shard_sizes(graph)
    print(f"  {counts}")
    print(
        f"  min {min(counts)}, max {max(counts)}, "
        f"imbalance {max(counts) / max(min(counts), 1):.3f}"
    )


if __name__ == "__main__":
    main()
