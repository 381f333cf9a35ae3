"""The algorithm registry: the single dispatch point for CC algorithms.

Every connected-components algorithm is registered once, with metadata,
via the :func:`register` decorator; ``repro.connected_components``, the
CLI, and the benchmark harness all resolve names here.  A spec carries
the callable plus everything a front-end needs to present or validate a
run: a one-line description, default parameters, and which execution
backends the algorithm supports.

Built-in algorithms live in :mod:`repro.engine.algorithms` and are loaded
lazily on first lookup, which keeps the import graph acyclic (algorithm
modules may import engine machinery at module scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "AlgorithmSpec",
    "register",
    "get_algorithm",
    "available_algorithms",
    "describe_algorithms",
    "supported_backends",
    "support_matrix_markdown",
]

#: registry name -> spec.  Populated by :func:`register`.
_REGISTRY: dict[str, "AlgorithmSpec"] = {}

_builtins_loaded = False


@dataclass(frozen=True)
class AlgorithmSpec:
    """Metadata and entry point of one registered algorithm.

    ``fn`` has the uniform engine signature
    ``fn(graph, backend, **params) -> CCResult``.  ``defaults`` are merged
    under caller parameters at dispatch.  ``backends`` names the execution
    backend kinds the algorithm supports; ``instrumented`` marks
    algorithms whose pipeline emits its own per-phase timings (others get
    a single whole-run ``total`` phase when profiled).
    """

    name: str
    fn: Callable
    description: str
    defaults: Mapping = field(default_factory=dict)
    backends: tuple[str, ...] = ("vectorized",)
    instrumented: bool = False

    def supports_backend(self, kind: str) -> bool:
        """True when the algorithm can run on a backend of ``kind``."""
        return kind in self.backends


def _ensure_builtins() -> None:
    """Import the built-in algorithm registrations exactly once."""
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from repro.engine import algorithms  # noqa: F401  (registers built-ins)


def register(
    name: str,
    *,
    description: str,
    defaults: Mapping | None = None,
    backends: tuple[str, ...] = ("vectorized",),
    instrumented: bool = False,
    overwrite: bool = False,
) -> Callable[[Callable], Callable]:
    """Decorator registering ``fn`` as algorithm ``name``.

    ``fn`` must accept ``(graph, backend, **params)`` and return a
    :class:`~repro.engine.result.CCResult`.  Registering an existing name
    raises unless ``overwrite=True`` (deliberate replacement, e.g. an
    experimental variant shadowing a built-in).
    """

    def deco(fn: Callable) -> Callable:
        if name in _REGISTRY and not overwrite:
            raise ConfigurationError(
                f"algorithm {name!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _REGISTRY[name] = AlgorithmSpec(
            name=name,
            fn=fn,
            description=description,
            defaults=dict(defaults or {}),
            backends=tuple(backends),
            instrumented=instrumented,
        )
        return fn

    return deco


def get_algorithm(name: str) -> AlgorithmSpec:
    """The spec registered under ``name``; raises for unknown names.

    Names containing ``+`` that are not explicitly registered resolve
    through the plan registry (:mod:`repro.engine.plan`): any valid
    ``<sampling>+<finish>`` composition dispatches like a registered
    algorithm without needing its own entry.
    """
    _ensure_builtins()
    spec = _REGISTRY.get(name)
    if spec is None and "+" in name:
        # Local import: the plan layer imports engine machinery at module
        # scope; resolving lazily keeps the import graph acyclic.
        from repro.engine.plan import plan_algorithm_spec

        return plan_algorithm_spec(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {sorted(_REGISTRY)} "
            "plus composed plans ('<sampling>+<finish>', see "
            "available_plans())"
        )
    return spec


def available_algorithms() -> list[str]:
    """Sorted names of every registered algorithm."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def describe_algorithms(
    include_plans: bool = True,
) -> list[tuple[str, str]]:
    """``(name, description)`` pairs for every resolvable algorithm.

    Registered algorithms come first (sorted); with ``include_plans``
    (the default) every composed ``<sampling>+<finish>`` plan follows, so
    front-ends presenting "what can I run" see the full matrix instead of
    the stale monolith-only view.
    """
    _ensure_builtins()
    pairs = [(n, _REGISTRY[n].description) for n in sorted(_REGISTRY)]
    if include_plans:
        from repro.engine.plan import describe_plans

        pairs.extend(describe_plans())
    return pairs


def supported_backends(name: str) -> tuple[str, ...]:
    """Backend kinds algorithm ``name`` supports (registry metadata)."""
    return get_algorithm(name).backends


def support_matrix_markdown() -> str:
    """The algorithm×backend support matrix as a markdown table.

    Derived entirely from registry metadata, so the rendering in
    ``docs/algorithms.md`` cannot drift from the code (a test regenerates
    and compares).  Registered algorithms come first, followed by every
    composed ``<sampling>+<finish>`` plan, so the matrix covers the full
    sampling × finish × backend space.  Algorithms registered with
    backends outside the canonical
    :data:`~repro.engine.backends.BACKEND_KINDS` get extra columns
    appended in registration order.
    """
    _ensure_builtins()
    # Local import: backends.py is heavy (numpy, the simulated machine) and the
    # registry must stay importable without it at module scope.
    from repro.engine.backends import BACKEND_KINDS
    from repro.engine.plan import PLAN_BACKENDS, available_plans

    kinds = list(BACKEND_KINDS)
    for name in sorted(_REGISTRY):
        for kind in _REGISTRY[name].backends:
            if kind not in kinds:
                kinds.append(kind)
    rows: list[tuple[str, tuple[str, ...]]] = [
        (name, _REGISTRY[name].backends) for name in sorted(_REGISTRY)
    ]
    rows.extend((name, PLAN_BACKENDS) for name in available_plans())
    lines = [
        "| algorithm | " + " | ".join(kinds) + " |",
        "|---|" + "|".join("---" for _ in kinds) + "|",
    ]
    for name, backends in rows:
        cells = " | ".join("✓" if k in backends else "—" for k in kinds)
        lines.append(f"| `{name}` | {cells} |")
    return "\n".join(lines)
