"""Labeling verification.

Different CC algorithms emit different label values for the same partition;
comparisons go through :func:`canonical_labels`, which renames labels to
"smallest vertex id in the component" — a canonical form under which two
labelings are equal iff they induce the same partition.

:func:`is_valid_labeling` checks a labeling against the graph itself (every
edge's endpoints share a label, and label classes are connected), which
catches both under- and over-merging without needing a reference labeling.
"""

from __future__ import annotations

import numpy as np

from repro.constants import VERTEX_DTYPE
from repro.errors import InvariantViolationError
from repro.graph.csr import CSRGraph
from repro.graph.properties import scipy_components
from repro.nputil import sorted_unique


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Rename each label class to the smallest vertex id it contains."""
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n == 0:
        return labels.astype(VERTEX_DTYPE)
    # For each distinct label, the first occurrence index is the smallest
    # member (argsort is stable over increasing vertex ids).
    _, first, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    return first[inverse].astype(VERTEX_DTYPE)


def equivalent_labelings(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff ``a`` and ``b`` induce the same partition of the vertices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return np.array_equal(canonical_labels(a), canonical_labels(b))


def assert_equivalent_labeling(
    a: np.ndarray, b: np.ndarray, context: str = ""
) -> None:
    """Raise :class:`InvariantViolationError` unless the labelings match."""
    if not equivalent_labelings(a, b):
        ca, cb = canonical_labels(a), canonical_labels(b)
        bad = np.nonzero(ca != cb)[0]
        v = int(bad[0]) if bad.size else -1
        raise InvariantViolationError(
            f"labelings differ{' (' + context + ')' if context else ''}: "
            f"{bad.size} vertices disagree, first at vertex {v} "
            f"({int(ca[v])} vs {int(cb[v])})"
        )


def is_valid_labeling(graph: CSRGraph, labels: np.ndarray) -> bool:
    """Exact validity check of ``labels`` against ``graph``.

    Validity = (i) every edge joins same-labeled endpoints (no
    under-merging) and (ii) the number of distinct labels equals the true
    component count (with (i), this rules out over-merging).
    """
    labels = np.asarray(labels)
    if labels.shape[0] != graph.num_vertices:
        return False
    if graph.num_vertices == 0:
        return True
    src, dst = graph.sources(), graph.indices
    if not np.array_equal(labels[src], labels[dst]):
        return False
    true_count = int(sorted_unique(scipy_components(graph)).shape[0])
    return int(sorted_unique(labels).shape[0]) == true_count
