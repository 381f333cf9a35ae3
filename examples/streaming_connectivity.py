"""Streaming connectivity: the link primitive as an online operation.

Afforest's ``link`` works on any edge order (Theorem 1), which makes it an
edge-insertion operation.  This example shows the same workload — "did
this transaction connect two fraud rings?" — at two levels:

1. the **low-level** :class:`~repro.core.IncrementalConnectivity`
   structure, where your code owns the loop and calls link/compress
   directly, and
2. the **serving layer** (:mod:`repro.serve`), where a solved
   :class:`~repro.serve.ConnectivityService` behind a batching
   :class:`~repro.serve.ConnectivityServer` answers the same queries
   from immutable epoch snapshots while absorbing the update stream —
   and every published epoch is bit-identical to a from-scratch batch
   re-solve.

Run:  python examples/streaming_connectivity.py
"""

from __future__ import annotations

import numpy as np

from repro.core import IncrementalConnectivity
from repro.generators import uniform_random_graph
from repro.serve import ConnectivityServer, ConnectivityService


def low_level_stream() -> None:
    """Own the loop: IncrementalConnectivity, link by link."""
    rng = np.random.default_rng(5)
    n = 50_000
    inc = IncrementalConnectivity(n, compress_every=8192)
    print(f"universe: {n} accounts, edges streaming in...\n")

    # ------------------------------------------------------------------ #
    # 1. Stream edges in bursts; watch the component structure coalesce.
    # ------------------------------------------------------------------ #
    print(f"{'edges_seen':>11} {'components':>11} {'giant_frac':>11}")
    for burst in range(8):
        m = 10_000
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        inc.add_edges(src, dst)
        labels = inc.labels()
        giant = int(np.bincount(labels).max())
        print(
            f"{inc.edges_inserted:>11} {inc.num_components:>11} "
            f"{giant / n:>11.1%}"
        )

    # ------------------------------------------------------------------ #
    # 2. Point queries between insertions.
    # ------------------------------------------------------------------ #
    a, b = 17, 23_042
    print(f"\nconnected({a}, {b})? {inc.connected(a, b)}")
    if not inc.connected(a, b):
        inc.add_edge(a, b)
        print(f"after linking them directly: {inc.connected(a, b)}")

    # ------------------------------------------------------------------ #
    # 3. Single-edge trickle with merge detection.
    # ------------------------------------------------------------------ #
    merges = 0
    for _ in range(1000):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if inc.add_edge(u, v):
            merges += 1
    print(
        f"\n1000 trickled edges caused {merges} merges "
        f"(most endpoints already share the giant component)"
    )
    print(f"final: {inc.num_components} components")


def serving_layer() -> None:
    """Same workload, as a service: solve once, serve epoch snapshots."""
    rng = np.random.default_rng(6)
    graph = uniform_random_graph(20_000, num_edges=30_000, seed=6)
    n = graph.num_vertices

    # The service solves the base graph once (any algorithm/backend), then
    # keeps a compressed label array + size census hot; readers always
    # see a complete epoch snapshot, never a half-updated structure.
    service = ConnectivityService(
        graph, recompress_every=4096, dataset="fraud-accounts"
    )
    print(
        f"\nserving layer: solved {n} accounts once "
        f"({service.num_components} components at epoch 0)"
    )

    with ConnectivityServer(service, max_batch=64) as server:
        # Interleave query batches with update bursts.  The worker loop
        # answers the queued queries between two epoch publishes with
        # one vectorized gather and links their bursts in one call.
        futures = []
        for _ in range(40):
            us = rng.integers(0, n, size=64)
            vs = rng.integers(0, n, size=64)
            futures.append(server.submit_same(us, vs))
            src = rng.integers(0, n, size=512)
            dst = rng.integers(0, n, size=512)
            server.submit_update(src, dst)
        connected_frac = float(
            np.mean([f.result().mean() for f in futures])
        )
        # Point reads go through the same queue (and the same snapshot).
        a, b = 17, 11_042
        same = server.same_component(a, b)
        size_a = server.component_size(a)
        server.submit_refresh().result()  # publish the tail of the stream
        print(
            f"40 query batches between update bursts: "
            f"{connected_frac:.0%} of random pairs connected"
        )
        print(f"same_component({a}, {b})? {same}; |component({a})| = {size_a}")

    counters = service.metrics.counters_snapshot()
    print(
        f"epochs published: {service.epoch}, "
        f"stream edges absorbed: {counters['serve_edges_inserted']}, "
        f"requests coalesced: {counters.get('serve_coalesced', 0)}"
    )

    # The serving invariant: the latest epoch's labels are bit-identical
    # to re-solving base graph + absorbed stream from scratch.
    resolved = service.batch_resolve()
    identical = bool(np.array_equal(service.labels(), resolved))
    print(f"epoch labels identical to batch re-solve? {identical}")


def main() -> None:
    low_level_stream()
    serving_layer()


if __name__ == "__main__":
    main()
