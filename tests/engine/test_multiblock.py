"""Bit-identity on graphs larger than one compress block.

``compress_all`` walks π in blocks of ``COMPRESS_BLOCK`` vertices, so a
graph that fits in one block runs it as plain pointer doubling.  These
graphs span several blocks: a 256×256 lattice with 30 % of its edges
dropped (4 full blocks, hundreds of components) and a path of
3·2^14 + 7 vertices (3 full blocks plus a partial one, one chain across
all of them).  Every algorithm that reaches ``compress`` must still return
the union-find oracle's min-labels on every backend that runs it at
wall-clock speed, and a serving epoch must still equal a batch re-solve.
"""

import numpy as np
import pytest

from repro import engine
from repro.analysis.verify import canonical_labels
from repro.core.compress import COMPRESS_BLOCK
from repro.engine import DistributedBackend
from repro.generators import road_network_graph
from repro.graph.builder import from_edge_array
from repro.serve import ConnectivityService
from repro.unionfind import sequential_components

#: test id (``<sampling>+<final phase>``) -> the algorithm name, for
#: every algorithm that compresses.
COMPRESS_PLANS = {"kout+settle": "afforest", "none+sv": "sv"}


def _lattice():
    return road_network_graph(256, 256, drop=0.3, highway=0.0, seed=7)


def _path():
    n = 3 * COMPRESS_BLOCK + 7
    return from_edge_array(np.arange(n - 1), np.arange(1, n), num_vertices=n)


@pytest.fixture(scope="module", params=["lattice", "path"])
def graph_and_oracle(request):
    graph = _lattice() if request.param == "lattice" else _path()
    assert graph.num_vertices > COMPRESS_BLOCK
    return graph, canonical_labels(sequential_components(graph))


@pytest.mark.parametrize("plan", COMPRESS_PLANS)
def test_vectorized_matches_oracle(graph_and_oracle, plan):
    graph, oracle = graph_and_oracle
    result = engine.run(COMPRESS_PLANS[plan], graph)
    assert np.array_equal(result.labels, oracle)


@pytest.mark.parametrize("partition", ["block", "hash"])
@pytest.mark.parametrize("ranks", [2, 3])
@pytest.mark.parametrize("plan", COMPRESS_PLANS)
def test_distributed_matches_oracle(graph_and_oracle, plan, ranks, partition):
    graph, oracle = graph_and_oracle
    backend = DistributedBackend(ranks=ranks, partition=partition)
    result = engine.run(COMPRESS_PLANS[plan], graph, backend=backend)
    assert np.array_equal(result.labels, oracle)


def test_compress_scratch_is_one_block():
    # The pooled buffers afforest touches on the vectorized backend are
    # compress's gather scratch, one block of int32 labels, and the
    # neighbour rounds' out-edges, n int64 slots.
    graph = _path()
    result = engine.run("afforest", graph, profile=True)
    assert result.counters["bytes_allocated"] == (
        COMPRESS_BLOCK * 4 + 8 * graph.num_vertices
    )


def test_service_epoch_matches_batch_resolve():
    graph = _lattice()
    svc = ConnectivityService(graph, recompress_every=0)
    rng = np.random.default_rng(11)
    n = graph.num_vertices
    svc.add_edges(rng.integers(0, n, size=300), rng.integers(0, n, size=300))
    assert svc.refresh() == 1
    assert np.array_equal(svc.labels(), svc.batch_resolve())
