"""Shared vocabulary of the pipeline phases.

A connectivity *plan* (:mod:`repro.engine.plan`) is a sampling phase
followed by a finish phase, with the probabilistic giant-component
identification (paper Sec. IV-E) as glue in between when the plan
samples.  Both phase families are expressed against the
:class:`~repro.engine.backends.ExecutionBackend` primitives, so every
plan runs unchanged on the vectorized, simulated, and distributed
substrates.

This module defines what a phase *is*:

- :class:`PlanContext` — the mutable state a plan run threads through its
  phases: the graph, the backend, the parent/label array ``π``, the
  result record being populated, the run's RNG, and the two pieces of
  glue state (``largest``, the skipped component's label, and
  ``final_start``, the first unconsumed edge slot per vertex);
- :class:`SamplingSpec` / :class:`FinishSpec` — metadata records binding
  a phase name to its implementation and its accepted parameters (used
  to route plan-level keyword arguments).

Phase implementations live in :mod:`repro.engine.sampling` and
:mod:`repro.engine.finish`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.engine.backends import ExecutionBackend
from repro.engine.result import CCResult
from repro.graph.csr import CSRGraph

__all__ = ["PlanContext", "SamplingSpec", "FinishSpec"]


@dataclass
class PlanContext:
    """Mutable state threaded through one plan execution.

    ``pi`` is the live parent/label array owned by the backend; phases
    mutate it in place through backend primitives only.  ``final_start``
    is set by sampling phases that consume trackable edge slots (first-k
    neighbour rounds) so the settle finish can resume after them;
    ``largest`` is set by the skip glue when the plan identifies a giant
    component to avoid.
    """

    graph: CSRGraph
    backend: ExecutionBackend
    pi: np.ndarray
    result: CCResult
    rng: np.random.Generator
    #: giant-component label identified by the skip glue (None = no skip).
    largest: int | None = None
    #: first edge slot per vertex the finish phase still has to process.
    final_start: int = 0


@dataclass(frozen=True)
class SamplingSpec:
    """One sampling phase.

    ``fn(ctx, **params)`` mutates ``ctx.pi`` (and the counters on
    ``ctx.result``) through backend primitives; ``params`` names the
    keyword arguments the phase accepts, used by the plan executor to
    route plan-level parameters.  ``validate`` (optional) checks the
    phase's parameters before any work — including on empty graphs, which
    short-circuit before ``fn`` runs.
    """

    name: str
    fn: Callable
    params: tuple[str, ...] = ()
    validate: Callable | None = field(default=None, compare=False)


@dataclass(frozen=True)
class FinishSpec:
    """One finish phase.

    ``fn(ctx, **params)`` drives ``ctx.pi`` to the exact labeling.
    ``whole_graph`` marks self-contained traversal pipelines (BFS/DOBFS)
    that own their initialisation (sentinel fill), so their plans sample
    nothing; their ``fn`` has the pipeline signature
    ``fn(graph, backend, **params)``.
    """

    name: str
    fn: Callable
    params: tuple[str, ...] = ()
    whole_graph: bool = False
    validate: Callable | None = field(default=None, compare=False)
