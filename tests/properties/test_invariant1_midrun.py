"""Invariant 1 (``pi[x] <= x``) after every backend primitive, mid-run.

The paper's hooks always point a higher id at a lower one, so every
self-initialised π keeps ``pi[v] <= v`` between any two primitives, not
only at convergence.  Each backend is wrapped in a test-only subclass
that asserts it on the live π after every primitive, and every algorithm
that starts from the identity π runs on small random graphs.  ``bfs`` and
``dobfs`` are left out: they start from the unvisited sentinel ``n``,
which is above every vertex id by design.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import DistributedBackend, SimulatedBackend, VectorizedBackend
from repro.graph import from_edge_list
from repro.parallel.machine import SimulatedMachine
from repro.unionfind import sequential_components

#: test id (``<sampling>+<final phase>``) -> the algorithm name, for
#: every algorithm whose π starts as the identity.
SELF_INITIALISED = {"kout+settle": "afforest", "none+sv": "sv", "none+lp": "lp"}

#: every primitive those algorithms reach on some backend.
PRIMITIVES = (
    "link_edges",
    "link_neighbor_round",
    "link_remaining",
    "compress",
    "find_largest",
    "hook_pass",
    "propagate_pass",
)


def _assert_invariant1(pi: np.ndarray, after: str) -> None:
    above = np.flatnonzero(pi > np.arange(pi.shape[0]))
    assert above.size == 0, (
        f"Invariant 1 broken after {after}: pi[v] > v at v={above[:8].tolist()}"
    )


class Invariant1Checks:
    """Mixin asserting Invariant 1 on π after every primitive."""

    def init_labels(self, n, **kwargs):
        pi = super().init_labels(n, **kwargs)
        _assert_invariant1(pi, "init_labels")
        return pi


def _checked(name):
    def primitive(self, pi, *args, **kwargs):
        out = getattr(super(Invariant1Checks, self), name)(pi, *args, **kwargs)
        _assert_invariant1(pi, name)
        self.checked.add(name)
        return out

    return primitive


for _name in PRIMITIVES:
    setattr(Invariant1Checks, _name, _checked(_name))


class CheckedVectorized(Invariant1Checks, VectorizedBackend):
    def __init__(self):
        super().__init__()
        self.checked: set[str] = set()


class CheckedSimulated(Invariant1Checks, SimulatedBackend):
    def __init__(self, workers, seed):
        super().__init__(SimulatedMachine(workers, seed=seed))
        self.checked: set[str] = set()


class CheckedDistributed(Invariant1Checks, DistributedBackend):
    def __init__(self, ranks):
        super().__init__(ranks=ranks)
        self.checked: set[str] = set()


@st.composite
def graphs(draw, max_n=20, max_edges=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, num_vertices=n)


@st.composite
def backends(draw, kind):
    if kind == "vectorized":
        return CheckedVectorized()
    if kind == "simulated":
        return CheckedSimulated(
            draw(st.integers(1, 4)), draw(st.integers(0, 2**16))
        )
    return CheckedDistributed(draw(st.integers(1, 4)))


def _run_checked(g, plan, backend, random_sampling=False):
    params = {}
    if plan.startswith("kout"):
        # Random neighbour rounds link through ``link_edges``.
        params = {"sampling": "random" if random_sampling else "first"}
    result = engine.run(SELF_INITIALISED[plan], g, backend=backend, **params)
    assert equivalent_labelings(result.labels, sequential_components(g))
    return backend.checked


@pytest.mark.parametrize("kind", ["vectorized", "simulated", "distributed"])
@pytest.mark.parametrize("plan", SELF_INITIALISED)
@given(data=st.data(), g=graphs(), random_sampling=st.booleans())
@settings(max_examples=12, deadline=None)
def test_invariant1_after_every_primitive(kind, plan, data, g, random_sampling):
    backend = data.draw(backends(kind))
    _run_checked(g, plan, backend, random_sampling)


def test_invariant1_check_reaches_every_primitive():
    """Between them the algorithms and backends run every checked primitive,
    so the property above is not vacuous."""
    g = from_edge_list(
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (8, 9)],
        num_vertices=12,
    )
    seen: set[str] = set()
    for plan in SELF_INITIALISED:
        for backend in (
            CheckedVectorized(),
            CheckedSimulated(3, 1),
            CheckedDistributed(3),
        ):
            for random_sampling in (False, True):
                seen |= _run_checked(g, plan, backend, random_sampling)
    assert seen == set(PRIMITIVES)
