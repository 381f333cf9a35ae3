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


class BarrierCheckedBackend(DistributedBackend):
    """Keeps its own copy of π as of the last barrier and asserts that
    every exchange publishes exactly the slots where π moved since.

    Between barriers π may move only at seeded slots (the driver's
    writes, which the next primitive broadcasts) and in a compress,
    which every replica runs alike; every primitive ends on a barrier.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.checked: list[str] = []
        self.running = ""
        #: the primitives whose exchanges the check has seen.
        self.published: set[str] = set()

    def init_labels(self, n, **kwargs):
        pi = super().init_labels(n, **kwargs)
        self.barrier = pi.copy()
        return pi

    def _sync_driver(self, pi):
        moved = np.flatnonzero(pi != self.barrier).tolist()
        assert set(moved) <= set(self._seeds), "π moved outside seed"
        super()._sync_driver(pi)
        self.barrier = pi.copy()

    def _publish(self, pi, live, changed, **kwargs):
        assert np.array_equal(changed, np.flatnonzero(pi != self.barrier))
        self.barrier = pi.copy()
        self.published.add(self.running)
        return super()._publish(pi, live, changed, **kwargs)


def _checked(name):
    def primitive(self, pi, *args, **kwargs):
        self.running = name
        out = getattr(DistributedBackend, name)(self, pi, *args, **kwargs)
        if name == "compress":
            self.barrier = pi.copy()
        assert np.array_equal(self.barrier, pi), f"π moved after {name}'s barrier"
        self.checked.append(name)
        return out

    return primitive


for _name in PRIMITIVES:
    setattr(BarrierCheckedBackend, _name, _checked(_name))


#: every name that runs on the distributed backend.
PARALLEL = [
    name
    for name in engine.available_algorithms()
    if engine.supports_backend(name, "distributed")
]


def _run_checked(g, plan, random_sampling=False, **kwargs):
    backend = BarrierCheckedBackend(**kwargs)
    random_sampling = random_sampling and plan.startswith("afforest")
    params = {"sampling": "random"} if random_sampling else {}
    result = engine.run(plan, g, backend=backend, **params)
    assert equivalent_labelings(result.labels, sequential_components(g))
    return backend


@given(graphs(), st.integers(1, 9), st.sampled_from(PARALLEL), st.booleans())
@settings(max_examples=80, deadline=None)
def test_exchanges_publish_the_barrier_diff(g, ranks, plan, random_sampling):
    _run_checked(g, plan, random_sampling, ranks=ranks)


def test_barrier_check_reaches_every_primitive():
    """The algorithms between them run every checked primitive, and an
    exchange in each that has one, so the property above is not vacuous."""
    # 16 and 19 reach each other only through each one's third slot, so
    # Afforest's final phase, which skips the 8-vertex path from 0, has
    # an edge to hook.
    g = from_edge_list(
        [(0, 1), (1, 2), (2, 3), (3, 10), (10, 11), (11, 17), (17, 18)]
        + [(4, 5), (5, 6), (6, 4), (8, 9)]
        + [(16, 12), (16, 13), (16, 19), (19, 14), (19, 15)],
        num_vertices=21,
    )
    seen = set()
    published = set()
    for plan in PARALLEL:
        for random_sampling in (False, True):
            backend = _run_checked(g, plan, random_sampling, ranks=3)
            seen.update(backend.checked)
            published.update(backend.published)
    assert seen == set(PRIMITIVES)
    assert published == seen - {"compress", "find_largest"}
