"""Analysis machinery: labeling verification, convergence measures
(Linkage/Coverage), Table II work statistics, and Fig. 7 memory-access
reductions."""

from repro.analysis.convergence import (
    ConvergenceCurve,
    convergence_curve,
    coverage,
    linkage,
)
from repro.analysis.memaccess import AccessSummary, reduce_trace
from repro.analysis.verify import (
    assert_equivalent_labeling,
    canonical_labels,
    equivalent_labelings,
    is_valid_labeling,
)
from repro.analysis.workstats import WorkStats, afforest_workstats, sv_workstats

__all__ = [
    "ConvergenceCurve",
    "convergence_curve",
    "coverage",
    "linkage",
    "AccessSummary",
    "reduce_trace",
    "assert_equivalent_labeling",
    "canonical_labels",
    "equivalent_labelings",
    "is_valid_labeling",
    "WorkStats",
    "afforest_workstats",
    "sv_workstats",
]
