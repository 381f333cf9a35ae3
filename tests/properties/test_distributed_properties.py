"""Property-based tests of the distributed backend."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.analysis import equivalent_labelings
from repro.engine import DistributedBackend
from repro.graph import from_edge_list
from repro.unionfind import sequential_components


@st.composite
def graphs(draw, max_n=25, max_edges=50):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
    )
    return from_edge_list(edges, num_vertices=n)


@given(graphs(), st.integers(1, 9))
@settings(max_examples=60, deadline=None)
def test_any_world_size_exact(g, ranks):
    result = engine.run("sv", g, backend=DistributedBackend(ranks=ranks))
    assert equivalent_labelings(result.labels, sequential_components(g))


#: every primitive the distributed backend runs as supersteps or replica work.
PRIMITIVES = (
    "link_edges",
    "link_neighbor_round",
    "link_remaining",
    "compress",
    "find_largest",
    "hook_pass",
    "propagate_pass",
    "frontier_expand",
    "bottom_up_pass",
)


class ShadowCheckedBackend(DistributedBackend):
    """Asserts after every primitive that the last-barrier shadow equals π
    — the invariant the exchange's shadow diff relies on."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checked: list[str] = []

    def init_labels(self, n, **kwargs):
        pi = super().init_labels(n, **kwargs)
        assert np.array_equal(self._shadow, pi)
        return pi


def _checked(name):
    def primitive(self, pi, *args, **kwargs):
        out = getattr(DistributedBackend, name)(self, pi, *args, **kwargs)
        assert np.array_equal(self._shadow, pi), f"shadow != pi after {name}"
        self.checked.append(name)
        return out

    return primitive


for _name in PRIMITIVES:
    setattr(ShadowCheckedBackend, _name, _checked(_name))


#: every name that runs on the distributed backend.
PARALLEL = [
    name
    for name in engine.available_algorithms()
    if engine.supports_backend(name, "distributed")
]


def _run_checked(g, plan, random_sampling=False, **kwargs):
    backend = ShadowCheckedBackend(**kwargs)
    random_sampling = random_sampling and plan.startswith("afforest")
    params = {"sampling": "random"} if random_sampling else {}
    result = engine.run(plan, g, backend=backend, **params)
    assert equivalent_labelings(result.labels, sequential_components(g))
    return backend


@given(graphs(), st.integers(1, 9), st.sampled_from(PARALLEL), st.booleans())
@settings(max_examples=80, deadline=None)
def test_shadow_equals_pi_after_every_primitive(g, ranks, plan, random_sampling):
    _run_checked(g, plan, random_sampling, ranks=ranks)


def test_shadow_check_reaches_every_primitive():
    """The algorithms between them run every checked primitive, so the
    property above is not vacuous."""
    g = from_edge_list(
        [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (8, 9)],
        num_vertices=12,
    )
    seen = set()
    for plan in PARALLEL:
        for random_sampling in (False, True):
            seen.update(_run_checked(g, plan, random_sampling, ranks=3).checked)
    assert seen == set(PRIMITIVES)
