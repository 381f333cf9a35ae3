"""Epoch segments: a drained batch resolves as one request at a time would.

The worker runs each drained batch by epoch segment — one gather per
query kind and one ``add_edges`` over the segment's inserts.  This test
replays one request stream through ``_run_batch`` in drawn batches on one
service and one request per call on a twin, and requires the same future
outcome per request and the same service history.
"""

import itertools
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder
from repro.serve import ConnectivityServer, ConnectivityService
from repro.serve.server import _Request

N = 12

# Components {0, 1, 2}, {3, 4} and {5, 6, 7, 8}; 9, 10 and 11 alone.
GRAPH = (
    GraphBuilder(N)
    .add_path([0, 1, 2])
    .add_path([3, 4])
    .add_clique([5, 6, 7, 8])
    .build()
)


def _ids(draw, width):
    ids = draw(st.lists(st.integers(0, N - 1), min_size=width, max_size=width))
    if ids and draw(st.integers(0, 4)) == 0:
        ids[draw(st.integers(0, width - 1))] = draw(st.sampled_from([-1, N]))
    return np.array(ids, dtype=np.int64)


@st.composite
def _specs(draw):
    """One request: ``(kind, payload, cancelled)``."""
    kind = draw(
        st.sampled_from(["same", "same", "sizes", "update", "update", "refresh"])
    )
    payload: list[np.ndarray] = []
    if kind != "refresh":
        width = draw(st.integers(0, 4))
        arity = 1 if kind == "sizes" else 2
        payload = [_ids(draw, width) for _ in range(arity)]
        flaw = draw(st.sampled_from([None] * 5 + ["float", "bool", "length"]))
        if flaw == "float":
            payload[0] = payload[0].astype(np.float64)
        elif flaw == "bool":
            payload[-1] = payload[-1] % 2 == 0
        elif flaw == "length" and arity == 2:
            payload[-1] = np.append(payload[-1], 0)
    return kind, payload, draw(st.integers(0, 9)) == 0


def _replay(specs, recompress_every, sizes):
    """Run ``specs`` through ``_run_batch`` in batches of ``sizes``."""
    epochs = []
    service = ConnectivityService(
        GRAPH,
        recompress_every=recompress_every,
        on_epoch=lambda s: epochs.append((s.epoch, s.edges_applied, s.labels)),
    )
    server = ConnectivityServer(service)
    requests = []
    for kind, payload, cancelled in specs:
        req = _Request(
            kind=kind,
            payload=tuple(a.copy() for a in payload),
            t_submit=time.perf_counter(),
        )
        if cancelled:
            req.future.cancel()
        requests.append(req)
    start = 0
    for size in itertools.cycle(sizes):
        if start >= len(requests):
            break
        server._run_batch(requests[start : start + size])
        start += size
    return requests, service, epochs


def _outcome(req):
    if req.future.cancelled():
        return "cancelled"
    exc = req.future.exception(0)  # raises if the future was never resolved
    if exc is not None:
        return type(exc)
    result = req.future.result(0)
    if isinstance(result, np.ndarray):
        return result.dtype, result.tolist()
    return result


COUNTERS = ("serve_updates", "serve_edges_inserted", "serve_epochs", "serve_errors")


@settings(max_examples=300, deadline=None)
@given(
    specs=st.lists(_specs(), min_size=1, max_size=30),
    recompress_every=st.sampled_from([0, 1, 3, 64, 10**6]),
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6),
)
def test_batches_match_one_request_at_a_time(specs, recompress_every, sizes):
    batched, svc_b, epochs_b = _replay(specs, recompress_every, sizes)
    single, svc_s, epochs_s = _replay(specs, recompress_every, [1])
    assert [_outcome(r) for r in batched] == [_outcome(r) for r in single]
    assert [e[:2] for e in epochs_b] == [e[:2] for e in epochs_s]
    for (_, _, got), (_, _, want) in zip(epochs_b, epochs_s):
        assert np.array_equal(got, want)
    for got, want in zip(svc_b.inserted_edges(), svc_s.inserted_edges()):
        assert got.tolist() == want.tolist()
    got = svc_b.metrics.counters_snapshot()
    want = svc_s.metrics.counters_snapshot()
    assert [got.get(k, 0) for k in COUNTERS] == [want.get(k, 0) for k in COUNTERS]
