"""The four end-to-end workloads of ``bench/e2e.py``.

Each workload derives every input from ``(workload name, seed)`` alone,
runs one *job* the way a user of the library would, and checks the job's
output against the sequential union-find oracle.  The harness in
``e2e.py`` owns timing; a workload only knows how to

- ``setup()``: generate its inputs (timed as ``setup_s``);
- ``expect(oracle)``: derive expected outputs from the oracle labeling
  (untimed);
- ``prepare()``: untimed per-job preparation (a fresh server for
  ``serve-mixed``, nothing for the others);
- ``job(tracer)``: the timed unit of work;
- ``check(output)``: ``(attempted, failed)`` operation counts.

Layer spans are opened here only around calls the benchmark itself makes
(``tracer.span`` is free when the tracer is disabled); spans inside the
library come from ``e2e_trace.instrumented``.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from hashlib import blake2b
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

from repro import engine
from repro.analysis.verify import canonical_labels
from repro.generators import (
    barabasi_albert_graph,
    component_fraction_graph,
    road_network_graph,
    web_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.io import read_edge_list, write_edge_list
from repro.obs.ledger import fingerprint_graph
from repro.obs.trace import Tracer
from repro.serve.server import (
    BackpressureError,
    ConnectivityServer,
    ServerClosedError,
)
from repro.serve.service import ConnectivityService, Snapshot
from repro.unionfind.sequential import SequentialUnionFind, sequential_components

def rng_for(seed: int, workload: str, stream: int) -> np.random.Generator:
    """An independent random stream keyed by (seed, workload, stream)."""
    key = zlib.crc32(workload.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, key, stream]))


def int_seed(seed: int, workload: str, stream: int) -> int:
    return int(rng_for(seed, workload, stream).integers(2**31))


def oracle_labels(graph: CSRGraph) -> np.ndarray:
    """Min-vertex-id labels from the plain single-threaded union-find."""
    return canonical_labels(sequential_components(graph))


def _digest(*arrays: np.ndarray) -> str:
    h = blake2b(digest_size=8)
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    #: per-size generator parameters; subclasses fill both sizes.
    PARAMS: dict[str, dict[str, Any]] = {}

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.p = self.PARAMS[size]
        self.workdir = workdir
        self.graph: CSRGraph | None = None
        self.oracle: np.ndarray | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def aux_inputs(self) -> tuple[np.ndarray, ...]:
        """Inputs besides the graph (query pairs, request streams)."""
        return ()

    def input_facts(self) -> dict[str, Any]:
        g = self.graph
        assert g is not None
        return {
            "n": g.num_vertices,
            "directed_m": g.num_directed_edges,
            "csr_bytes": int(g.indptr.nbytes + g.indices.nbytes),
            "graph_fingerprint": fingerprint_graph(g)["digest"],
            "input_digest": _digest(g.indptr, g.indices, *self.aux_inputs()),
        }

    def expect(self, oracle: np.ndarray) -> None:
        self.oracle = oracle

    def prepare(self) -> None:
        pass

    def job(self, tracer: Tracer) -> Any:
        raise NotImplementedError

    def check(self, output: Any) -> tuple[int, int]:
        """Labels-only jobs: one operation, failed unless bit-identical."""
        return 1, int(not np.array_equal(output, self.oracle))

    def record(self, output: Any) -> None:
        """Keep what :meth:`report` needs from one timed, checked job."""

    def report(self) -> list[tuple[str, float, str, str]]:
        """Workload-specific ``(name, value, unit, note)`` report lines."""
        return []

    def close(self) -> None:
        pass


class FilePowerlaw(Workload):
    """Edge list on disk -> parse -> build -> service (fingerprint, solve,
    epoch-0 publish) -> one batch of pair queries: the whole user job."""

    name = "file-powerlaw"
    PARAMS = {
        "full": {"n": 1 << 18, "m": 4, "pairs": 1 << 20},
        "tiny": {"n": 1 << 11, "m": 4, "pairs": 1 << 12},
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self.path = workdir / f"{self.name}-s{seed}-{size}.el"

    def setup(self) -> None:
        p = self.p
        g = barabasi_albert_graph(
            p["n"], p["m"], seed=int_seed(self.seed, self.name, 0)
        )
        write_edge_list(g, self.path)
        rng = rng_for(self.seed, self.name, 1)
        self.us = rng.integers(0, p["n"], p["pairs"], dtype=np.int64)
        self.vs = rng.integers(0, p["n"], p["pairs"], dtype=np.int64)
        self.graph = g
        self.el_bytes = self.path.stat().st_size

    def aux_inputs(self) -> tuple[np.ndarray, ...]:
        return (self.us, self.vs)

    def input_facts(self) -> dict[str, Any]:
        return {**super().input_facts(), "el_bytes": self.el_bytes}

    def expect(self, oracle: np.ndarray) -> None:
        super().expect(oracle)
        self.answers = oracle[self.us] == oracle[self.vs]

    def job(self, tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
        with tracer.span(
            "graph.io.read_edge_list", input_bytes=self.el_bytes
        ):
            graph = read_edge_list(self.path)
        with tracer.span("serve.service.build"):
            service = ConnectivityService(graph)
        answers = service.same_component_batch(self.us, self.vs)
        return service.labels(), answers

    def check(self, output: tuple[np.ndarray, np.ndarray]) -> tuple[int, int]:
        labels, answers = output
        ok = np.array_equal(labels, self.oracle) and np.array_equal(
            answers, self.answers
        )
        return 1, int(not ok)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


class SolveRoad(Workload):
    """In-memory high-diameter road proxy: one default engine solve."""

    name = "solve-road"
    PARAMS = {
        "full": {"side": 1024},
        "tiny": {"side": 48},
    }

    def setup(self) -> None:
        side = self.p["side"]
        self.graph = road_network_graph(
            side,
            side,
            drop=0.05,
            highway=0.0005,
            seed=int_seed(self.seed, self.name, 0),
        )

    def job(self, tracer: Tracer) -> np.ndarray:
        return engine.run("afforest", self.graph).labels


class SolveDist(Workload):
    """In-memory web proxy solved on the distributed backend (2 ranks)."""

    name = "solve-dist"
    PARAMS = {
        "full": {"n": 1 << 18},
        "tiny": {"n": 1 << 11},
    }

    def setup(self) -> None:
        self.graph = web_graph(
            self.p["n"],
            local_k=8,
            hub_edges_per_vertex=4,
            seed=int_seed(self.seed, self.name, 0),
        )

    def job(self, tracer: Tracer) -> np.ndarray:
        return engine.run(
            "afforest", self.graph, backend="distributed", ranks=2
        ).labels


# request kinds of the serve-mixed stream
PAIR_Q, SIZE_Q, INSERT = 0, 1, 2


@dataclass
class Session:
    """One closed-loop serving session and everything its check needs."""

    seconds: float
    kinds: np.ndarray
    a: np.ndarray | None
    b: np.ndarray | None
    futures: list[Any]
    submit_failed: int
    lat_query: list[float]
    lat_update: list[float]
    epochs: list[tuple[int, int, np.ndarray]]
    service: ConnectivityService | None
    batches: int = 0


class ServeMixed(Workload):
    """Reads beside writes: a closed loop of pair/size queries and edge
    insert bursts against a :class:`ConnectivityServer`."""

    name = "serve-mixed"
    PARAMS = {
        "full": {
            "n": 1 << 18,
            "requests": 5_000,
            "recompress_every": 4096,
        },
        "tiny": {"n": 1 << 11, "requests": 600, "recompress_every": 128},
    }
    FRACTION = 0.001
    EDGE_FACTOR = 4
    ITEMS = 32  # pairs / vertices / edges per request
    MIX = (0.8, 0.1, 0.1)  # pair batches, size batches, insert bursts
    IN_FLIGHT = 64
    MAX_BATCH = 128

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        super().__init__(seed, size, workdir)
        self._server: ConnectivityServer | None = None
        self._epochs: list[tuple[int, int, np.ndarray]] = []
        self._sessions = 0
        self._timed: list[Session] = []
        self._resolved = False

    def setup(self) -> None:
        self._stop_server()
        self.graph = component_fraction_graph(
            self.p["n"],
            self.FRACTION,
            edge_factor=self.EDGE_FACTOR,
            seed=int_seed(self.seed, self.name, 0),
        )
        self._sessions = 0
        self.prepare()

    def aux_inputs(self) -> tuple[np.ndarray, ...]:
        return self._stream(0)

    def _stream(self, session: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rng = rng_for(self.seed, self.name, 1 + session)
        r, n = self.p["requests"], self.p["n"]
        kinds = rng.choice(3, size=r, p=self.MIX)
        a = rng.integers(0, n, (r, self.ITEMS), dtype=np.int64)
        b = rng.integers(0, n, (r, self.ITEMS), dtype=np.int64)
        return kinds, a, b

    def prepare(self) -> None:
        """A fresh service and started server for the next session."""
        if self._server is not None:
            return
        epochs: list[tuple[int, int, np.ndarray]] = []

        def on_epoch(snap: Snapshot) -> None:
            epochs.append((snap.epoch, snap.edges_applied, snap.labels))

        service = ConnectivityService(
            self.graph,
            recompress_every=self.p["recompress_every"],
            on_epoch=on_epoch,
        )
        snap = service.snapshot
        epochs.append((snap.epoch, snap.edges_applied, snap.labels))
        self._epochs = epochs
        self._inputs = self._stream(self._sessions)
        self._sessions += 1
        self._server = ConnectivityServer(
            service, max_batch=self.MAX_BATCH, record=False
        ).start()

    def job(self, tracer: Tracer) -> Session:
        server = self._server
        assert server is not None, "prepare() must run before each session"
        self._server = None
        kinds, a, b = self._inputs
        lat_query: list[float] = []
        lat_update: list[float] = []
        futures: list[Any] = [None] * len(kinds)
        inflight: deque = deque()
        submit_failed = 0
        submit = (
            lambda i: server.submit_same(a[i], b[i], block=False),
            lambda i: server.submit_sizes(a[i], block=False),
            lambda i: server.submit_update(a[i], b[i], block=False),
        )
        t0 = perf_counter()
        try:
            for i, kind in enumerate(kinds.tolist()):
                if len(inflight) >= self.IN_FLIGHT:
                    inflight.popleft().exception()  # wait, closed loop
                sink = lat_update if kind == INSERT else lat_query
                ts = perf_counter()
                try:
                    fut = submit[kind](i)
                except (BackpressureError, ServerClosedError):
                    submit_failed += 1
                    continue
                # Runs on the server thread as the request completes.
                fut.add_done_callback(
                    lambda _f, ts=ts, sink=sink: sink.append(perf_counter() - ts)
                )
                futures[i] = fut
                inflight.append(fut)
            for fut in inflight:
                fut.exception()
            seconds = perf_counter() - t0
        finally:
            server.stop()
        counters = server.metrics.counters_snapshot()
        root = tracer.current()
        if root is not None:
            root.attrs.update(
                requests=counters.get("serve_requests", 0),
                batches=counters.get("serve_batches", 0),
            )
        return Session(
            seconds=seconds,
            kinds=kinds,
            a=a,
            b=b,
            futures=futures,
            submit_failed=submit_failed,
            lat_query=lat_query,
            lat_update=lat_update,
            epochs=self._epochs,
            service=server.service,
            batches=counters.get("serve_batches", 0),
        )

    # -- the oracle gate --------------------------------------------------- #

    def _expected_epochs(
        self, src: np.ndarray, dst: np.ndarray, applied: list[int]
    ) -> dict[int, np.ndarray]:
        """Oracle labels after each stream prefix in ``applied``.

        Union-find over base-component representatives (the oracle's min
        labels), fed the stream edges in insertion order; each prefix's
        labeling maps every base component to the minimum representative
        of its merged class.
        """
        base = self.oracle
        assert base is not None
        reps = np.unique(base)
        uf = SequentialUnionFind(self.graph.num_vertices)
        su, sv = base[src].tolist(), base[dst].tolist()
        comp = np.searchsorted(reps, base)
        out: dict[int, np.ndarray] = {}
        done = 0
        for k in sorted(set(applied)):
            for u, v in zip(su[done:k], sv[done:k]):
                uf.union(u, v)
            done = k
            roots = np.fromiter((uf.find(r) for r in reps.tolist()), np.int64)
            low = np.full(self.graph.num_vertices, np.iinfo(np.int64).max)
            np.minimum.at(low, roots, reps)
            out[k] = low[roots][comp]
        return out

    def check(self, output: Session) -> tuple[int, int]:
        """Every request and every published epoch is one operation.

        A request fails when it was refused or raised, or when its answer
        differs from the oracle at the epoch that served it.  The server
        runs requests in submission order, so that epoch is the one the
        latest preceding insert burst reported (epoch 0 before any).  An
        epoch fails when its labels differ from the oracle's.  The first
        session checked in a run (the warm-up) also re-solves its final
        epoch from scratch with ``batch_resolve``; at ~1 s a call, doing
        that for every session would cost more than the session itself.
        """
        s = output
        service = s.service
        assert service is not None
        src, dst = service.inserted_edges()
        expected = self._expected_epochs(src, dst, [e[1] for e in s.epochs])
        epoch_labels = {}
        failed_epochs = 0
        for epoch, applied, labels in s.epochs:
            epoch_labels[epoch] = expected[applied]
            if not np.array_equal(labels, expected[applied]):
                failed_epochs += 1
        if not self._resolved:
            self._resolved = True
            _, last_applied, last_labels = s.epochs[-1]
            resolved = service.batch_resolve(last_applied)
            if not np.array_equal(resolved, last_labels):
                failed_epochs += 1

        failed = s.submit_failed
        current = 0
        sizes_at: dict[int, np.ndarray] = {}
        for i, kind in enumerate(s.kinds.tolist()):
            fut = s.futures[i]
            if fut is None:
                continue
            if fut.exception() is not None:
                failed += 1
                continue
            result = fut.result()
            if kind == INSERT:
                current = int(result)
                continue
            lab = epoch_labels.get(current)
            if lab is None:
                failed += 1
                continue
            if kind == PAIR_Q:
                want = lab[s.a[i]] == lab[s.b[i]]
            else:
                if current not in sizes_at:
                    sizes_at[current] = np.bincount(lab, minlength=lab.shape[0])
                want = sizes_at[current][lab[s.a[i]]]
            if not np.array_equal(result, want):
                failed += 1
        # Drop the heavy parts; the report needs only timings and counts.
        s.service, s.epochs, s.futures, s.a, s.b = None, [], [], None, None
        return len(s.kinds) + len(epoch_labels), failed + failed_epochs

    def record(self, output: Session) -> None:
        self._timed.append(output)

    def report(self) -> list[tuple[str, float, str, str]]:
        outputs = self._timed
        seconds = sum(s.seconds for s in outputs)
        requests = sum(len(s.kinds) for s in outputs)
        q = np.concatenate([s.lat_query for s in outputs]) * 1e3
        u = np.concatenate([s.lat_update for s in outputs]) * 1e3
        batches = sum(s.batches for s in outputs)
        return [
            ("serve_req_per_s", requests / seconds, "1/s",
             f"{requests} requests over {len(outputs)} sessions"),
            ("serve_query_p50_ms", float(np.percentile(q, 50)), "ms",
             f"{q.size} queries"),
            ("serve_query_p99_ms", float(np.percentile(q, 99)), "ms",
             f"{q.size} queries"),
            ("serve_update_p99_ms", float(np.percentile(u, 99)), "ms",
             f"{u.size} insert bursts"),
            ("serve_requests_per_batch", requests / max(batches, 1), "ratio",
             f"{batches} batches"),
        ]

    def _stop_server(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None

    def close(self) -> None:
        self._stop_server()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (FilePowerlaw, SolveRoad, ServeMixed, SolveDist)
}
