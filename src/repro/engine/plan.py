"""Plans: composed sampling × finish connectivity pipelines.

A :class:`Plan` pairs one sampling phase (:mod:`repro.engine.sampling`)
with one finish phase (:mod:`repro.engine.finish`); the
:class:`PlanRegistry` enumerates every valid pair, and :func:`run_plan`
executes one — the ConnectIt-style compositional space generalising the
paper's single sampling+finish point.  A plan run is:

1. ``init_labels`` (phase ``I``): π self-pointing;
2. the sampling phase links a cheap subset of edges into π;
3. *skip glue* (phase ``F``): when skipping is on and the finish can
   honour it, the giant intermediate component's label is identified by
   sampling π (:func:`repro.core.sampling.most_frequent_element` through
   ``backend.find_largest``);
4. the finish phase drives π to the exact component labeling, skipping
   the identified component's edges where supported.

Plan names are ``"<sampling>+<finish>"`` (``kout+settle``, ``kout+sv``,
``none+lp``); the eight classical registry algorithms are canonical plans
(:data:`CANONICAL_PLANS`) whose composed execution is bit-identical to
the pre-refactor monoliths.  Whole-graph finishes (BFS/DOBFS) own their
initialisation and only compose with ``none``.

Every phase speaks the :class:`~repro.engine.backends.ExecutionBackend`
primitive vocabulary, so every plan runs on all three substrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    DEFAULT_NEIGHBOR_ROUNDS,
    DEFAULT_SKIP_SAMPLE_SIZE,
    VERTEX_DTYPE,
)
from repro.engine.backends import ExecutionBackend
from repro.engine.finish import FINISHES
from repro.engine.phase import FinishSpec, PlanContext, SamplingSpec
from repro.engine.result import CCResult
from repro.engine.sampling import SAMPLINGS
from repro.errors import ConfigurationError
from repro.graph.csr import CSRGraph

__all__ = [
    "Plan",
    "PlanRegistry",
    "CANONICAL_PLANS",
    "PLAN_BACKENDS",
    "available_plans",
    "describe_plans",
    "get_plan",
    "run_plan",
    "plan_algorithm_spec",
]

#: substrates every plan runs on (each phase speaks backend primitives).
PLAN_BACKENDS = ("vectorized", "simulated", "distributed")

#: plan-level parameters routed to the executor rather than a phase.
PLAN_PARAMS = ("seed", "skip_largest", "sample_size")

#: legacy registry name -> composed plan name (identical semantics; the
#: ``afforest-noskip`` alias differs only in its registered defaults).
CANONICAL_PLANS = {
    "afforest": "kout+settle",
    "afforest-noskip": "kout+settle",
    "sv": "none+sv",
    "fastsv": "none+fastsv",
    "lp": "none+lp",
    "lp-datadriven": "none+lp-datadriven",
    "bfs": "none+bfs",
    "dobfs": "none+dobfs",
}


@dataclass(frozen=True)
class Plan:
    """One composed pipeline: a sampling phase and a finish phase."""

    sampling: SamplingSpec
    finish: FinishSpec

    @property
    def name(self) -> str:
        return f"{self.sampling.name}+{self.finish.name}"

    @property
    def description(self) -> str:
        return (
            f"{self.sampling.name} sampling + {self.finish.name} finish "
            f"({self.finish.description})"
        )


class PlanRegistry:
    """Enumerates and resolves every valid sampling × finish pair.

    Whole-graph finishes only pair with the ``none`` sampling phase;
    every other finish pairs with every sampling phase.
    """

    def __init__(
        self,
        samplings: dict[str, SamplingSpec] | None = None,
        finishes: dict[str, FinishSpec] | None = None,
    ) -> None:
        self._samplings = dict(samplings if samplings is not None else SAMPLINGS)
        self._finishes = dict(finishes if finishes is not None else FINISHES)

    @property
    def samplings(self) -> dict[str, SamplingSpec]:
        return dict(self._samplings)

    @property
    def finishes(self) -> dict[str, FinishSpec]:
        return dict(self._finishes)

    def compose(self, sampling: str, finish: str) -> Plan:
        """The plan pairing ``sampling`` with ``finish`` (validated)."""
        s_spec = self._samplings.get(sampling)
        if s_spec is None:
            raise ConfigurationError(
                f"unknown sampling phase {sampling!r}; "
                f"available: {sorted(self._samplings)}"
            )
        f_spec = self._finishes.get(finish)
        if f_spec is None:
            raise ConfigurationError(
                f"unknown finish phase {finish!r}; "
                f"available: {sorted(self._finishes)}"
            )
        if f_spec.whole_graph and s_spec.name != "none":
            raise ConfigurationError(
                f"finish {finish!r} is a whole-graph pipeline and only "
                f"composes with the 'none' sampling phase, not {sampling!r}"
            )
        return Plan(sampling=s_spec, finish=f_spec)

    def get(self, name: str) -> Plan:
        """Resolve ``"<sampling>+<finish>"`` (or a canonical alias)."""
        alias = CANONICAL_PLANS.get(name)
        if alias is not None:
            name = alias
        parts = name.split("+")
        if len(parts) != 2:
            raise ConfigurationError(
                f"invalid plan name {name!r}; expected "
                "'<sampling>+<finish>', e.g. 'kout+sv'"
            )
        return self.compose(parts[0], parts[1])

    def plans(self) -> list[Plan]:
        """Every valid composition, sorted by name."""
        out = []
        for s_name, s_spec in self._samplings.items():
            for f_name, f_spec in self._finishes.items():
                if f_spec.whole_graph and s_name != "none":
                    continue
                out.append(Plan(sampling=s_spec, finish=f_spec))
        return sorted(out, key=lambda p: p.name)

    def names(self) -> list[str]:
        """Sorted names of every valid composition."""
        return [p.name for p in self.plans()]


#: the process-wide default registry (all built-in phases).
_DEFAULT_REGISTRY = PlanRegistry()


def get_plan(name: str) -> Plan:
    """Resolve a plan name against the default registry."""
    return _DEFAULT_REGISTRY.get(name)


def available_plans() -> list[str]:
    """Sorted names of every valid composed plan."""
    return _DEFAULT_REGISTRY.names()


def describe_plans() -> list[tuple[str, str]]:
    """``(name, description)`` pairs for every valid composed plan."""
    return [(p.name, p.description) for p in _DEFAULT_REGISTRY.plans()]


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
    **params,
) -> CCResult:
    """Execute ``plan`` on ``graph`` over ``backend``; exact labeling.

    Plan-level parameters: ``seed`` (RNG for random neighbour sampling and
    the skip glue's π probes), ``skip_largest`` (defaulting to True
    exactly when the plan samples *and* its finish can skip — the
    classical finish-only plans stay skip-free like their monolithic
    ancestors), ``sample_size`` (number of π probes).  Remaining keywords
    are routed to the phase that declares them; unknown keys raise.
    """
    if isinstance(plan, str):
        plan = get_plan(plan)
    s_params, f_params, top = _split_params(plan, params)
    if plan.sampling.validate is not None:
        plan.sampling.validate(**s_params)
    if plan.finish.validate is not None:
        plan.finish.validate(**f_params)

    if plan.finish.whole_graph:
        result = plan.finish.fn(graph, backend, **f_params)
        result.plan = plan.name
        return result

    seed = top.get("seed", 0)
    sample_size = top.get("sample_size", DEFAULT_SKIP_SAMPLE_SIZE)
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


def plan_algorithm_spec(name: str):
    """An :class:`~repro.engine.registry.AlgorithmSpec` for a composed
    plan name, letting ``engine.run("kout+sv", g)`` and every other
    registry consumer resolve plans exactly like registered algorithms.
    """
    from repro.engine.registry import AlgorithmSpec

    plan = get_plan(name)

    def _run(graph: CSRGraph, backend: ExecutionBackend, **params) -> CCResult:
        return run_plan(plan, graph, backend, **params)

    return AlgorithmSpec(
        name=plan.name,
        fn=_run,
        description=plan.description,
        backends=PLAN_BACKENDS,
        instrumented=True,
    )
