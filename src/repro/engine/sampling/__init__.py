"""The sampling phases.

A sampling phase cheaply links *some* of the graph's edges into the
parent/label array π — Afforest's neighbour rounds — so the finish phase
starts from a partial forest instead of singletons.  With a giant
component, the plan executor can then identify its label
probabilistically (:func:`repro.core.sampling.most_frequent_element`
through ``backend.find_largest``) and let the settle finish avoid its
edges entirely — the paper's central optimisation.

``KOUT`` is Afforest's sampling phase; ``NONE`` is the identity phase of
the finish-only plans (the classical baselines).
"""

from __future__ import annotations

from repro.engine.phase import PlanContext, SamplingSpec
from repro.engine.sampling.kout import KOUT, kout_sampling

__all__ = [
    "NONE",
    "KOUT",
    "kout_sampling",
]


def _none_sampling(ctx: PlanContext) -> None:
    """Identity sampling: the finish phase sees pristine singletons."""


NONE = SamplingSpec(name="none", fn=_none_sampling)
