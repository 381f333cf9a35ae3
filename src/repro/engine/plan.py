"""Plans: composed sampling × finish connectivity pipelines.

A :class:`Plan` pairs one sampling phase (:mod:`repro.engine.sampling`)
with one finish phase (:mod:`repro.engine.finish`); :func:`get_plan`
resolves a name to one and :func:`run_plan` executes it — the
ConnectIt-style compositional space generalising the paper's single
sampling+finish point.  A plan run is:

1. ``init_labels`` (phase ``I``): π self-pointing;
2. the sampling phase links a cheap subset of edges into π;
3. *skip glue* (phase ``F``): when skipping is on and the finish can
   honour it, the giant intermediate component's label is identified by
   sampling π (:func:`repro.core.sampling.most_frequent_element` through
   ``backend.find_largest``);
4. the finish phase drives π to the exact component labeling, skipping
   the identified component's edges where supported.

Plan names are ``"<sampling>+<finish>"`` (``kout+settle``, ``kout+sv``,
``none+lp``).  :data:`CANONICAL_PLANS` is the one table of the eight
classical names (``afforest``, ``sv``, ...): each maps to its
composition plus the parameters the name fixes.  ``sequential``, the
union-find reference, is the one algorithm name outside it.
Whole-graph finishes (BFS/DOBFS) own their initialisation and only
compose with ``none``.

Every phase speaks the :class:`~repro.engine.backends.ExecutionBackend`
primitive vocabulary, so every plan runs on all three substrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import (
    DEFAULT_NEIGHBOR_ROUNDS,
    DEFAULT_SKIP_SAMPLE_SIZE,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.finish import DEFAULT_ALPHA, DEFAULT_BETA, FINISHES
from repro.engine.phase import FinishSpec, PlanContext, SamplingSpec
from repro.engine.result import CCResult
from repro.engine.sampling import SAMPLINGS
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph
from repro.nputil import require_int

__all__ = [
    "Plan",
    "CANONICAL_PLANS",
    "SEQUENTIAL",
    "available_algorithms",
    "available_plans",
    "describe_plans",
    "get_plan",
    "run_plan",
]

#: plan-level parameters routed to the executor rather than a phase.
PLAN_PARAMS = ("seed", "skip_largest", "sample_size")

#: classical algorithm name -> (composed plan name, the parameters the
#: name fixes).  Caller keyword arguments override the fixed ones.
CANONICAL_PLANS: dict[str, tuple[str, dict]] = {
    "afforest": ("kout+settle", {}),
    "afforest-noskip": ("kout+settle", {"skip_largest": False}),
    "sv": ("none+sv", {}),
    "fastsv": ("none+fastsv", {}),
    "lp": ("none+lp", {}),
    "lp-datadriven": ("none+lp-datadriven", {}),
    "bfs": ("none+bfs", {}),
    "dobfs": ("none+dobfs", {"alpha": DEFAULT_ALPHA, "beta": DEFAULT_BETA}),
}

#: the sequential union-find reference: the one algorithm name that is
#: not a plan, run by ``engine.run`` on the vectorized backend only.
SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class Plan:
    """One composed pipeline: a sampling phase and a finish phase, plus
    the parameters a classical name fixes (empty for a composed name)."""

    sampling: SamplingSpec
    finish: FinishSpec
    params: dict = field(default_factory=dict, hash=False)

    @property
    def name(self) -> str:
        return f"{self.sampling.name}+{self.finish.name}"

    @property
    def description(self) -> str:
        return (
            f"{self.sampling.name} sampling + {self.finish.name} finish "
            f"({self.finish.description})"
        )


def get_plan(name: str) -> Plan:
    """Resolve a classical name or a ``"<sampling>+<finish>"`` name.

    Classical names come from :data:`CANONICAL_PLANS`; composed names
    straight from the sampling and finish families.  Whole-graph
    finishes compose with the ``none`` sampling phase only.
    """
    composed, params = CANONICAL_PLANS.get(name, (name, {}))
    parts = composed.split("+")
    if len(parts) != 2:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: "
            f"{available_algorithms()} plus composed plans "
            "('<sampling>+<finish>', see available_plans())"
        )
    sampling, finish = parts
    s_spec = SAMPLINGS.get(sampling)
    if s_spec is None:
        raise ConfigurationError(
            f"unknown sampling phase {sampling!r}; "
            f"available: {sorted(SAMPLINGS)}"
        )
    f_spec = FINISHES.get(finish)
    if f_spec is None:
        raise ConfigurationError(
            f"unknown finish phase {finish!r}; "
            f"available: {sorted(FINISHES)}"
        )
    if f_spec.whole_graph and sampling != "none":
        raise ConfigurationError(
            f"finish {finish!r} is a whole-graph pipeline and only "
            f"composes with the 'none' sampling phase, not {sampling!r}"
        )
    return Plan(sampling=s_spec, finish=f_spec, params=dict(params))


def available_algorithms() -> list[str]:
    """Sorted algorithm names: the classical plans and ``sequential``."""
    return sorted([*CANONICAL_PLANS, SEQUENTIAL])


def _compositions() -> list[Plan]:
    """Every valid sampling × finish pair, sorted by name."""
    plans = [
        Plan(sampling=s_spec, finish=f_spec)
        for s_spec in SAMPLINGS.values()
        for f_spec in FINISHES.values()
        if s_spec.name == "none" or not f_spec.whole_graph
    ]
    return sorted(plans, key=lambda p: p.name)


def available_plans() -> list[str]:
    """Sorted names of every valid composed plan."""
    return [p.name for p in _compositions()]


def describe_plans() -> list[tuple[str, str]]:
    """``(name, description)`` pairs for every valid composed plan."""
    return [(p.name, p.description) for p in _compositions()]


def _split_params(plan: Plan, params: dict) -> tuple[dict, dict, dict]:
    """Route plan keyword arguments to (sampling, finish, executor)."""
    s_keys = set(plan.sampling.params)
    f_keys = set(plan.finish.params)
    plan_keys = set() if plan.finish.whole_graph else set(PLAN_PARAMS)
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

    Plan-level parameters: ``seed`` (RNG for random neighbour sampling and
    the skip glue's π probes), ``skip_largest`` (defaulting to True
    exactly when the plan samples *and* its finish can skip — the
    classical finish-only plans stay skip-free like their monolithic
    ancestors), ``sample_size`` (number of π probes).  Remaining keywords
    are routed to the phase that declares them; unknown keys raise.  A
    classical plan's fixed parameters apply unless overridden.
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
    skip_default = plan.sampling.name != "none" and plan.finish.supports_skip
    skip = bool(top.get("skip_largest", skip_default))
    skip = skip and plan.finish.supports_skip

    n = graph.num_vertices
    if n == 0:
        result = CCResult(labels=np.arange(0, dtype=VERTEX_DTYPE))
        if plan.sampling.name == "kout":
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

