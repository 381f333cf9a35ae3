"""Afforest: the paper's core contribution.

The full Fig. 5 algorithm runs as ``engine.run("afforest", g)`` (any
substrate via ``backend=``).  This package holds its building blocks:

- :func:`~repro.core.link.link` / :func:`~repro.core.compress.compress` —
  the two primitives, scalar form;
- :mod:`~repro.core.strategies` — the subgraph partitioning strategies of
  Sec. V-B (row / uniform-edge / neighbour / spanning-forest-optimal).
"""

from repro.core.compress import compress, compress_all, compress_kernel
from repro.core.incremental import IncrementalConnectivity
from repro.core.link import LinkCounters, link, link_batch, link_kernel
from repro.core.sampling import approximate_largest_label, most_frequent_element
from repro.core.spanning_forest import spanning_forest

__all__ = [
    "compress",
    "compress_all",
    "compress_kernel",
    "IncrementalConnectivity",
    "LinkCounters",
    "link",
    "link_batch",
    "link_kernel",
    "approximate_largest_label",
    "most_frequent_element",
    "spanning_forest",
]
