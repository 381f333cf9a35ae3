"""The sampling phase family.

A sampling phase cheaply links *some* of the graph's edges into the
parent/label array π — Afforest's neighbour rounds — so the finish phase
starts from a partial forest instead of singletons.  With a giant
component, the plan executor can then identify its label
probabilistically (:func:`repro.core.sampling.most_frequent_element`
through ``backend.find_largest``) and let skip-capable finishes avoid its
edges entirely — the paper's central optimisation.

``SAMPLINGS`` is the registry the plan layer composes from; ``none`` is
the identity phase (finish-only plans, the classical monoliths).
"""

from __future__ import annotations

from repro.engine.phase import PlanContext, SamplingSpec
from repro.engine.sampling.kout import KOUT, kout_sampling

__all__ = [
    "SAMPLINGS",
    "NONE",
    "KOUT",
    "kout_sampling",
]


def _none_sampling(ctx: PlanContext) -> None:
    """Identity sampling: the finish phase sees pristine singletons."""


NONE = SamplingSpec(
    name="none",
    fn=_none_sampling,
    description="no sampling: the finish phase processes the whole graph",
)

#: name -> spec of every registered sampling phase.
SAMPLINGS: dict[str, SamplingSpec] = {spec.name: spec for spec in (NONE, KOUT)}
