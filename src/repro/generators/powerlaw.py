"""Heavy-tailed-degree generators: preferential attachment and Chung–Lu.

Proxies for the paper's ``twitter`` social network: a giant component,
power-law degrees, low effective diameter.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import ConfigurationError
from repro.generators.rng import make_rng, require_positive
from repro.graph.builder import build_csr
from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph


def preferential_attachment_edges(
    num_vertices: int,
    edges_per_vertex: int,
    rng: np.random.Generator,
) -> EdgeList:
    """Barabási–Albert edge list: each arriving vertex attaches to
    ``edges_per_vertex`` targets drawn proportionally to current degree.

    The process is the repeated-endpoint pool of Batagelj and Brandes
    (2005): edge e fills slots 2e (its source) and 2e + 1 (its target) of
    a flat array, so a uniform slot is a degree-proportional endpoint.
    Vertices 0..m form a clique, and each later vertex v draws m slots
    uniformly below 2e, e being the number of edges made before v
    (duplicate targets collapse during CSR dedup, a standard BA variant).

    Nothing in that process needs the pool built in order.  Every bound
    2e is known up front, so one ``rng.integers`` call with an array of
    bounds, each repeated m times, makes all the draws: NumPy draws an
    array bound element by element from the same stream, so the picks
    and the generator's final state are those of one ``size=m`` call per
    vertex.  A pick is then resolved without the pool: an even slot 2e
    is edge e's source, which has a closed form, and an odd slot 2e + 1
    is the target of the earlier edge e, which is that edge's own pick.
    Pointer jumping over those references resolves every chain in a few
    vectorized rounds (4 at 2^18 vertices), so the result is the
    sequential process's edge list exactly, for any seed.
    """
    require_positive("num_vertices", num_vertices)
    require_positive("edges_per_vertex", edges_per_vertex)
    m = edges_per_vertex
    n = num_vertices
    if n <= m:
        # Too small for attachment; fall back to a clique.
        src, dst = np.triu_indices(n, k=1)
        return EdgeList(
            n, src.astype(VERTEX_DTYPE), dst.astype(VERTEX_DTYPE)
        )

    # Seed structure: vertex v in [1, m] connects to every u < v, in order.
    seed_src, seed_dst = np.tril_indices(m + 1, k=-1)
    e0 = seed_src.shape[0]
    total_edges = e0 + (n - m - 1) * m
    src = np.empty(total_edges, dtype=VERTEX_DTYPE)
    dst = np.empty(total_edges, dtype=VERTEX_DTYPE)
    src[:e0], dst[:e0] = seed_src, seed_dst
    src[e0:] = np.repeat(np.arange(m + 1, n, dtype=VERTEX_DTYPE), m)
    # Vertex v's m picks: uniform slots below 2e, e = edges made before v.
    slot = rng.integers(
        0,
        np.repeat(np.arange(2 * e0, 2 * total_edges, 2 * m, dtype=np.int64), m),
    )
    # A target slot 2e + 1 of an arrival edge e stands for that edge's own
    # pick: replace each such pick by its referent's, which earlier rounds
    # have already advanced (pointer jumping), until none is left.
    todo = np.flatnonzero(_arrival_target(slot, e0))
    while todo.size:
        jumped = slot[(slot[todo] >> 1) - e0]
        slot[todo] = jumped
        todo = todo[_arrival_target(jumped, e0)]
    # What is left is a source slot, or a target slot of the seed clique.
    half = slot >> 1
    dst[e0:] = src[half]
    seed_target = np.flatnonzero(slot & 1)
    dst[e0 + seed_target] = dst[half[seed_target]]
    return EdgeList(n, src, dst)


def _arrival_target(slot: np.ndarray, e0: int) -> np.ndarray:
    """Mask of the slots ``2e + 1`` with ``e >= e0``: the target slots of
    edges made by arrivals, not by the seed clique."""
    return (slot > 2 * e0) & (slot & 1).astype(bool)


def barabasi_albert_graph(
    num_vertices: int,
    edges_per_vertex: int = 8,
    *,
    seed: int | np.random.Generator | None = 0,
    sort_neighbors: bool = True,
) -> CSRGraph:
    """Barabási–Albert preferential-attachment graph (connected, power-law)."""
    rng = make_rng(seed)
    return build_csr(
        preferential_attachment_edges(num_vertices, edges_per_vertex, rng),
        sort_neighbors=sort_neighbors,
    )


def chung_lu_graph(
    num_vertices: int,
    *,
    exponent: float = 2.2,
    mean_degree: float = 16.0,
    max_degree: int | None = None,
    seed: int | np.random.Generator | None = 0,
    sort_neighbors: bool = True,
) -> CSRGraph:
    """Chung–Lu random graph with power-law expected degrees.

    Draws an expected-degree sequence ``w_v ~ Pareto(exponent)`` rescaled to
    ``mean_degree``, then samples ``m = n * mean_degree / 2`` edges with both
    endpoints degree-proportional — the standard fast Chung–Lu sampler.

    Unlike preferential attachment, Chung–Lu graphs contain many small
    components alongside the giant one, matching the component structure of
    crawled social networks (Table III's ``twitter`` has 9.6M components).
    """
    require_positive("num_vertices", num_vertices)
    if exponent <= 1.0:
        raise ConfigurationError(f"exponent must be > 1, got {exponent}")
    if mean_degree <= 0:
        raise ConfigurationError(f"mean_degree must be > 0, got {mean_degree}")
    rng = make_rng(seed)
    n = num_vertices
    # Power-law weights via inverse-CDF of a Pareto with shape exponent-1.
    u = rng.random(n)
    weights = (1.0 - u) ** (-1.0 / (exponent - 1.0))
    if max_degree is None:
        max_degree = int(np.sqrt(n * mean_degree)) + 1
    weights = np.minimum(weights, max_degree)
    weights *= mean_degree / weights.mean()
    prob = weights / weights.sum()

    m = int(round(n * mean_degree / 2.0))
    src = rng.choice(n, size=m, p=prob).astype(VERTEX_DTYPE)
    dst = rng.choice(n, size=m, p=prob).astype(VERTEX_DTYPE)
    return build_csr(EdgeList(n, src, dst), sort_neighbors=sort_neighbors)
