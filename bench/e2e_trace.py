"""Per-layer spans for the traced run of ``bench/e2e.py``.

Nothing under ``src/repro`` emits layer spans, so the traced run wraps the
layers' public entry points from here: :func:`instrumented` swaps each
entry point for a wrapper that opens a :class:`~repro.obs.trace.Span` on
the run's tracer, and restores the originals on exit.  Wrappers nest, so a
layer's self time is its span minus its child spans (``read_edge_list``
minus the ``build_csr`` it calls).  ``engine.run`` additionally runs with
``profile=True`` and the engine's own phase spans (``L0``, ``C0``, ...,
``F``, ``H``, ``C*``, and ``X`` exchanges on the distributed backend) are
grafted under the wrapper's span, so one trace holds every layer.

Layer names follow the modules: ``graph.io``, ``graph.builder``,
``obs.fingerprint``, ``engine``, ``distributed``, ``serve.service``,
``serve.server``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.engine
import repro.graph.builder
import repro.serve.service
from repro.core.incremental import IncrementalConnectivity
from repro.obs.trace import Span, Trace, Tracer
from repro.serve.service import ConnectivityService

#: per-layer metric name -> unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "graph.io.read_edge_list_s": "s",
    "graph.io.parse_self_s": "s",
    "graph.io.edges_parsed": "count",
    "graph.io.input_mb": "MB",
    "graph.builder.build_csr_s": "s",
    "graph.builder.records_in": "count",
    "graph.builder.directed_edges_out": "count",
    "obs.fingerprint_s": "s",
    "engine.run_s": "s",
    "engine.sampling_s": "s",
    "engine.finish_s": "s",
    "engine.edges_processed": "count",
    "engine.skip_ratio": "ratio",
    "engine.link_rounds": "count",
    "engine.compress_passes": "count",
    "engine.bytes_allocated": "bytes",
    "engine.oracle_s": "s",
    "distributed.compute_s": "s",
    "distributed.exchange_s": "s",
    "distributed.comm_bytes_sent": "bytes",
    "distributed.comm_supersteps": "count",
    "distributed.comm_messages": "count",
    "distributed.bytes_vs_bound": "ratio",
    "serve.service.query_s": "s",
    "serve.service.queried_pairs": "count",
    "serve.service.publish_s": "s",
    "serve.service.epochs": "count",
    "serve.service.add_edges_s": "s",
    "serve.server.coalesce_ratio": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def _spanned(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    attrs: Callable[[tuple, Any], dict[str, Any]] | None = None,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as span:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span.attrs.update(attrs(args, out))
        return out

    return wrapper


def _build_attrs(args: tuple, graph: Any) -> dict[str, Any]:
    return {
        "records_in": args[0].num_edges,
        "directed_edges_out": graph.num_directed_edges,
    }


def _engine_run(tracer: Tracer, run: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        kwargs["profile"] = True
        with tracer.span("engine.run") as span:
            result = run(*args, **kwargs)
            span.children.extend(result.trace.spans)
            graph = kwargs.get("graph", args[1] if len(args) > 1 else None)
            counters = result.counters
            ranks = result.trace.meta.get("ranks") or 1
            per_rank = defaultdict(int)
            for key, value in counters.items():
                if key.startswith("comm_pair_"):
                    per_rank[key.split("_")[2]] += value
            span.attrs.update(
                backend=result.backend,
                n=graph.num_vertices,
                directed_m=graph.num_directed_edges,
                ranks=ranks,
                edges_processed=result.edges_touched + result.edges_processed,
                edges_skipped=result.edges_skipped,
                link_rounds=sum(result.link_rounds),
                compress_passes=sum(result.compress_passes),
                bytes_allocated=counters.get("bytes_allocated", 0),
                comm_bytes_sent=counters.get("comm_bytes_sent", 0),
                comm_supersteps=counters.get("comm_supersteps", 0),
                comm_messages=counters.get("comm_messages", 0),
                max_rank_bytes=max(per_rank.values(), default=0),
            )
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Route every layer entry point through a span on ``tracer``."""
    patches: list[tuple[Any, str, Callable[..., Any]]] = []

    def patch(owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    builder = repro.graph.builder
    service_mod = repro.serve.service
    # ``from_edge_array`` (read_edge_list, the generators) resolves
    # ``build_csr`` through the builder module at call time.
    patch(builder, "build_csr", lambda f: _spanned(
        tracer, "graph.builder.build_csr", f, _build_attrs))
    patch(service_mod, "fingerprint_graph", lambda f: _spanned(
        tracer, "obs.fingerprint", f))
    patch(repro.engine, "run", lambda f: _engine_run(tracer, f))
    patch(IncrementalConnectivity, "labels", lambda f: _spanned(
        tracer, "serve.service.publish", f))
    pairs = lambda args, out: {"pairs": int(out.shape[0])}  # noqa: E731
    patch(ConnectivityService, "same_component_batch", lambda f: _spanned(
        tracer, "serve.service.query", f, pairs))
    patch(ConnectivityService, "component_sizes", lambda f: _spanned(
        tracer, "serve.service.query", f, pairs))
    patch(ConnectivityService, "add_edges", lambda f: _spanned(
        tracer, "serve.service.add_edges", f))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _walk(span: Span, parent: Span | None = None) -> Iterator[tuple[Span, Span | None]]:
    yield span, parent
    for child in span.children:
        yield from _walk(child, span)


def self_seconds(span: Span) -> float:
    return span.duration - sum(c.duration for c in span.children)


def layer_metrics(job: Span) -> dict[str, float]:
    """Per-layer metrics of one traced job (root span ``job``)."""
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)
    sampling = finish = exchange = dist_total = 0.0
    for span, parent in _walk(job):
        total[span.name] += span.duration
        selfs[span.name] += self_seconds(span)
        count[span.name] += 1
        a = span.attrs
        if span.name == "graph.builder.build_csr":
            attr["records_in"] += a["records_in"]
            attr["directed_edges_out"] += a["directed_edges_out"]
            if parent is not None and parent.name == "graph.io.read_edge_list":
                attr["edges_parsed"] += a["records_in"]
        elif span.name == "graph.io.read_edge_list":
            attr["input_bytes"] += a.get("input_bytes", 0)
        elif span.name == "serve.service.query":
            attr["pairs"] += a["pairs"]
        elif span.name == "engine.run":
            for key in ("edges_processed", "link_rounds", "compress_passes",
                        "bytes_allocated", "comm_bytes_sent",
                        "comm_supersteps", "comm_messages"):
                attr[key] += a[key]
            attr["skip_num"] += a["edges_skipped"]
            attr["skip_den"] += a["directed_m"]
            if a["backend"] == "distributed":
                dist_total += span.duration
                bound = 8 * a["n"] * (a["ranks"] - 1)
                attr["bytes_vs_bound"] = max(
                    attr["bytes_vs_bound"], a["max_rank_bytes"] / bound
                )
        elif span.name == "X":
            exchange += span.duration
        if parent is not None and parent.name == "total":
            # Engine phases: L<round>/C<round> sample, the rest finish.
            if span.name in ("L", "C") and "round" in span.attrs:
                sampling += span.duration
            else:
                finish += span.duration
    batches = job.attrs.get("batches", 0)
    top = sum(c.duration for c in job.children)
    return {
        "graph.io.read_edge_list_s": total["graph.io.read_edge_list"],
        "graph.io.parse_self_s": selfs["graph.io.read_edge_list"],
        "graph.io.edges_parsed": attr["edges_parsed"],
        "graph.io.input_mb": attr["input_bytes"] / 2**20,
        "graph.builder.build_csr_s": total["graph.builder.build_csr"],
        "graph.builder.records_in": attr["records_in"],
        "graph.builder.directed_edges_out": attr["directed_edges_out"],
        "obs.fingerprint_s": total["obs.fingerprint"],
        "engine.run_s": total["engine.run"],
        "engine.sampling_s": sampling,
        "engine.finish_s": finish,
        "engine.edges_processed": attr["edges_processed"],
        "engine.skip_ratio": attr["skip_num"] / attr["skip_den"]
        if attr["skip_den"] else 0.0,
        "engine.link_rounds": attr["link_rounds"],
        "engine.compress_passes": attr["compress_passes"],
        "engine.bytes_allocated": attr["bytes_allocated"],
        "distributed.compute_s": dist_total - exchange if dist_total else 0.0,
        "distributed.exchange_s": exchange,
        "distributed.comm_bytes_sent": attr["comm_bytes_sent"],
        "distributed.comm_supersteps": attr["comm_supersteps"],
        "distributed.comm_messages": attr["comm_messages"],
        "distributed.bytes_vs_bound": attr["bytes_vs_bound"],
        "serve.service.query_s": total["serve.service.query"],
        "serve.service.queried_pairs": attr["pairs"],
        "serve.service.publish_s": total["serve.service.publish"],
        "serve.service.epochs": count["serve.service.publish"],
        "serve.service.add_edges_s": total["serve.service.add_edges"],
        "serve.server.coalesce_ratio": job.attrs.get("requests", 0) / batches
        if batches else 0.0,
        "trace.coverage": top / job.duration if job.duration else 0.0,
    }


def self_time_table(trace: Trace) -> list[str]:
    """One line per span name: calls, total and self milliseconds, and
    self time as a share of the traced jobs."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    jobs = 0.0
    for root in trace.spans:
        jobs += root.duration
        for span, _ in _walk(root):
            calls[span.name] += 1
            total[span.name] += span.duration
            selfs[span.name] += self_seconds(span)
    lines = [f"{'span':<28}{'calls':>7}{'total ms':>12}{'self ms':>12}{'self %':>8}"]
    for name in sorted(selfs, key=selfs.get, reverse=True):
        share = 100 * selfs[name] / jobs if jobs else 0.0
        lines.append(
            f"{name:<28}{calls[name]:>7}{total[name] * 1e3:>12.2f}"
            f"{selfs[name] * 1e3:>12.2f}{share:>8.1f}"
        )
    return lines
