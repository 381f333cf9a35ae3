"""Plans: the table of algorithm names and the executor that runs them.

A :class:`Plan` pairs one sampling phase (:mod:`repro.engine.sampling`)
with one finish phase (:mod:`repro.engine.finish`), plus the parameters
its name fixes.  :data:`CANONICAL_PLANS` is the one name space: each
algorithm name (``afforest``, ``sv``, ...) maps to its plan, and
:func:`get_plan` looks a name up there.  ``sequential``, the union-find
reference, is the one algorithm name outside it.  A plan's own name,
``"<sampling>+<finish>"`` (``kout+settle``, ``none+sv``), is what
``result.plan`` and the run ledger record; it is not an algorithm name.

:func:`run_plan` executes a plan:

1. ``init_labels`` (phase ``I``): π self-pointing;
2. the sampling phase links a cheap subset of edges into π;
3. *skip glue* (phase ``F``): when the plan samples and skipping is on,
   the giant intermediate component's label is identified by sampling π
   (:func:`repro.core.sampling.most_frequent_element` through
   ``backend.find_largest``);
4. the finish phase drives π to the exact component labeling, skipping
   the identified component's edges.

BFS and DOBFS are whole-graph finishes: they own their initialisation,
so their plans sample nothing and run no glue.

Every phase speaks the :class:`~repro.engine.backends.ExecutionBackend`
primitive vocabulary, so every plan runs on all three substrates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.constants import (
    DEFAULT_NEIGHBOR_ROUNDS,
    DEFAULT_SKIP_SAMPLE_SIZE,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.finish import (
    BFS_FINISH,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DOBFS_FINISH,
    LP,
    SETTLE,
    SV,
)
from repro.engine.phase import FinishSpec, PlanContext, SamplingSpec
from repro.engine.result import CCResult
from repro.engine.sampling import KOUT, NONE
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.nputil import require_int

__all__ = [
    "Plan",
    "CANONICAL_PLANS",
    "SEQUENTIAL",
    "available_algorithms",
    "get_plan",
    "run_plan",
]

#: plan-level parameters routed to the executor rather than a phase.
PLAN_PARAMS = ("seed", "skip_largest", "sample_size")


@dataclass(frozen=True)
class Plan:
    """One pipeline: a sampling phase and a finish phase, plus the
    parameters its algorithm name fixes (a read-only copy, so a shared
    :data:`CANONICAL_PLANS` entry cannot be edited through it)."""

    sampling: SamplingSpec
    finish: FinishSpec
    params: Mapping[str, Any] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @property
    def name(self) -> str:
        return f"{self.sampling.name}+{self.finish.name}"


#: algorithm name -> its plan.  Caller keyword arguments override the
#: parameters a plan fixes.
CANONICAL_PLANS: dict[str, Plan] = {
    "afforest": Plan(KOUT, SETTLE),
    "afforest-noskip": Plan(KOUT, SETTLE, {"skip_largest": False}),
    "sv": Plan(NONE, SV),
    "lp": Plan(NONE, LP),
    "bfs": Plan(NONE, BFS_FINISH),
    "dobfs": Plan(NONE, DOBFS_FINISH, {"alpha": DEFAULT_ALPHA, "beta": DEFAULT_BETA}),
}

#: the sequential union-find reference: the one algorithm name that is
#: not a plan, run by ``engine.run`` on the vectorized backend only.
SEQUENTIAL = "sequential"


def get_plan(name: str) -> Plan:
    """The plan of algorithm ``name`` in :data:`CANONICAL_PLANS`."""
    plan = CANONICAL_PLANS.get(name)
    if plan is None:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        )
    return plan


def available_algorithms() -> list[str]:
    """Sorted algorithm names: the plan table's and ``sequential``."""
    return sorted([*CANONICAL_PLANS, SEQUENTIAL])


def _split_params(plan: Plan, params: dict) -> tuple[dict, dict, dict]:
    """Route plan keyword arguments to (sampling, finish, executor).

    The executor's parameters all steer sampling or the skip glue that
    follows it, so a plan that samples nothing refuses them."""
    s_keys = set(plan.sampling.params)
    f_keys = set(plan.finish.params)
    plan_keys = set(PLAN_PARAMS) if plan.sampling is not NONE else set()
    s_params: dict = {}
    f_params: dict = {}
    top: dict = {}
    for key, value in params.items():
        if key in s_keys:
            s_params[key] = value
        elif key in f_keys:
            f_params[key] = value
        elif key in plan_keys:
            top[key] = value
        else:
            raise ConfigurationError(
                f"plan {plan.name!r} does not accept parameter {key!r}; "
                f"accepted: {sorted(s_keys | f_keys | plan_keys)}"
            )
    return s_params, f_params, top


def run_plan(
    plan: Plan | str,
    graph: CSRGraph,
    backend: ExecutionBackend,
    /,
    **params,
) -> CCResult:
    """Execute ``plan`` on ``graph`` over ``backend``; exact labeling.

    Plan-level parameters, accepted only by a plan that samples (so only
    Afforest): ``seed`` (RNG for random neighbour sampling and the skip
    glue's π probes), ``skip_largest`` (default True), ``sample_size``
    (number of π probes).  Remaining keywords are routed to the phase
    that declares them; unknown keys raise.  The plan's fixed parameters
    apply unless overridden.
    """
    if isinstance(plan, str):
        plan = get_plan(plan)
    s_params, f_params, top = _split_params(plan, {**plan.params, **params})
    if plan.sampling.validate is not None:
        plan.sampling.validate(**s_params)
    if plan.finish.validate is not None:
        plan.finish.validate(**f_params)
    sample_size = top.get("sample_size", DEFAULT_SKIP_SAMPLE_SIZE)
    require_int("sample_size", sample_size, 1)

    if plan.finish.whole_graph:
        result = plan.finish.fn(graph, backend, **f_params)
        result.plan = plan.name
        return result

    seed = top.get("seed", 0)
    samples = plan.sampling is not NONE
    skip = samples and bool(top.get("skip_largest", True))

    n = graph.num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        if samples:
            result.neighbor_rounds = s_params.get(
                "neighbor_rounds", DEFAULT_NEIGHBOR_ROUNDS
            )
        result.run_stats = backend.run_stats()
        result.plan = plan.name
        return result

    rng = np.random.default_rng(seed)
    pi = backend.init_labels(n, phase="I")
    result = CCResult(labels=pi)
    result.plan = plan.name
    ctx = PlanContext(
        graph=graph, backend=backend, pi=pi, result=result, rng=rng
    )
    plan.sampling.fn(ctx, **s_params)
    if skip:
        ctx.largest = backend.find_largest(pi, sample_size, rng, phase="F")
        result.largest_label = ctx.largest
    plan.finish.fn(ctx, **f_params)
    result.labels = ctx.pi
    result.run_stats = backend.run_stats()
    return result
