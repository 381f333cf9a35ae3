"""Baseline CC algorithms the paper compares against.

Every baseline is implemented once, as a backend-agnostic finish phase in
:mod:`repro.engine.finish`; the entry points in this package are thin
deprecated shims over :func:`repro.engine.run` kept for backward
compatibility.

- :mod:`~repro.baselines.shiloach_vishkin` — the original tree-hooking
  algorithm (GAP's SV formulation), CSR and edge-list variants;
- :mod:`~repro.baselines.label_propagation` — synchronous min-label
  propagation and its data-driven (frontier) variant;
- :mod:`~repro.baselines.bfs_cc` — per-component parallel BFS;
- :mod:`~repro.baselines.dobfs_cc` — direction-optimizing BFS-CC.
"""

from repro.baselines.bfs_cc import BFSCCResult, bfs_cc
from repro.baselines.dobfs_cc import DOBFSResult, dobfs_cc
from repro.baselines.label_propagation import (
    LPResult,
    label_propagation,
    label_propagation_datadriven,
)
from repro.baselines.shiloach_vishkin import (
    SVResult,
    shiloach_vishkin,
    shiloach_vishkin_edgelist,
)

__all__ = [
    "BFSCCResult",
    "bfs_cc",
    "DOBFSResult",
    "dobfs_cc",
    "LPResult",
    "label_propagation",
    "label_propagation_datadriven",
    "SVResult",
    "shiloach_vishkin",
    "shiloach_vishkin_edgelist",
]
