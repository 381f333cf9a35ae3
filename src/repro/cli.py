"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``    write a synthetic dataset proxy to a graph file
``info``        print Table III-style statistics for a graph
``solve``       compute connected components and optionally save the labels
``compare``     run several algorithms on one graph and print a timing table
``algorithms``  list the algorithm names and their fixed parameters
                (``--check`` runs each on every backend against the scipy
                oracle)
``convert``     translate between the supported graph file formats
``serve``       stand up the connectivity serving layer on one graph and
                drive a mixed query/update stream through it (throughput,
                p50/p95/p99 latency, epoch bit-identity oracle)
``trace``       render a saved execution trace as an ASCII timeline
``obs``         run-ledger tools: ``runs`` lists recent recorded runs,
                ``show`` prints one (``--prom`` for Prometheus text),
                ``diff`` attributes a slowdown between two runs, reports,
                or ledgers, and ``watch`` streams live per-round progress

Algorithm arguments accept the names in the name table (``afforest``,
``sv``, …, ``sequential``; :data:`repro.engine.ALGORITHMS`).

``solve`` and ``compare`` accept ``--trace-out PATH`` (with
``--trace-format {jsonl,chrome}``) to export the telemetry trace of the
profiled run; chrome-format files load directly into Perfetto /
``chrome://tracing``, and either format round-trips through
``repro trace PATH``.

Graphs are referenced either by a file path (``.el``/``.txt``/``.graph``/
``.metis``/``.npz``) or by a dataset spec ``dataset:<name>[:<size>]``
(e.g. ``dataset:kron:small``) resolved through the generator registry.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

import repro
from repro.constants import LABEL_DTYPE_POLICIES
from repro.engine import (
    ALGORITHMS,
    SEQUENTIAL,
    available_algorithms,
    backend_kinds,
    make_backend,
    supports_backend,
)
from repro.errors import ConfigurationError, ReproError
from repro.generators.datasets import DATASETS, SIZE_TIERS, load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.io import load_graph, save_graph
from repro.graph.properties import summarize
from repro.obs import (
    TRACE_FORMATS,
    HeartbeatEvent,
    HeartbeatMonitor,
    RunDiff,
    RunLedger,
    attribution_markdown,
    diff_runs,
    format_diff,
    format_event,
    load_trace,
    render_prometheus,
    render_trace,
    write_trace,
)


def _resolve_graph(spec: str, seed: int) -> CSRGraph:
    """Load a graph from a file path or a ``dataset:`` spec."""
    if spec.startswith("dataset:"):
        parts = spec.split(":")
        name = parts[1] if len(parts) > 1 else ""
        size = parts[2] if len(parts) > 2 else "default"
        return load_dataset(name, size, seed=seed)
    return load_graph(spec)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, args.size, seed=args.seed)
    save_graph(graph, args.output)
    print(
        f"wrote {args.dataset}/{args.size} "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges) "
        f"to {args.output}"
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args.graph, args.seed)
    p = summarize(graph, args.graph)
    print(f"graph:       {args.graph}")
    print(f"vertices:    {p.num_vertices}")
    print(f"edges:       {p.num_edges}")
    print(
        f"degree:      mean {p.degree.mean:.2f}, median {p.degree.median:.0f}, "
        f"max {p.degree.max}, isolated {p.degree.num_isolated}"
    )
    print(
        f"components:  {p.components.num_components} "
        f"(largest {p.components.largest}, "
        f"{p.components.largest_fraction:.1%} of vertices)"
    )
    print(f"diameter:    >= {p.pseudo_diameter} (double-sweep bound)")
    return 0


def _check_algorithm(name: str, kind: str) -> None:
    """Fail on an unknown name or an unsupported algorithm×backend pair
    before the (possibly expensive) graph load, not deep in dispatch."""
    if not supports_backend(name, kind):
        raise ConfigurationError(
            f"algorithm {name!r} does not support the {kind!r} backend; "
            "supported: ['vectorized']"
        )


def _cmd_solve(args: argparse.Namespace) -> int:
    _check_algorithm(args.algorithm, args.backend)
    graph = _resolve_graph(args.graph, args.seed)
    backend = make_backend(
        args.backend, workers=args.workers,
        ranks=getattr(args, "ranks", None),
        label_dtype=getattr(args, "label_dtype", "auto"),
    )
    t0 = time.perf_counter()
    result = repro.engine.run(
        args.algorithm, graph, backend=backend, trace=bool(args.trace_out)
    )
    elapsed = time.perf_counter() - t0
    labels = result.labels
    tag = "" if args.backend == "vectorized" else f" [{args.backend}]"
    print(
        f"{args.algorithm}{tag}: {result.num_components} components in "
        f"{elapsed * 1000:.1f} ms "
        f"({graph.num_vertices} vertices, {graph.num_edges} edges)"
    )
    if args.output:
        np.savez_compressed(args.output, labels=labels)
        print(f"labels written to {args.output}")
    if args.trace_out and result.trace is not None:
        write_trace(result.trace, args.trace_out, format=args.trace_format)
        print(f"trace written to {args.trace_out} ({args.trace_format})")
    return 0


def _cmd_algorithms(args: argparse.Namespace) -> int:
    if args.check:
        return _check_algorithms(args)
    print(f"{'algorithm':<16} fixed parameters")
    for name, algorithm in ALGORITHMS.items():
        if name == SEQUENTIAL:
            fixed = "union-find reference, vectorized only"
        else:
            fixed = ", ".join(f"{k}={v}" for k, v in algorithm.params.items())
        print(f"{name:<16} {fixed or '-'}")
    return 0


def _algorithm_check_graph() -> CSRGraph:
    """The name check's input: ``component_fraction_graph(150, 0.3,
    seed=3)``, whose every vertex has degree >= 9, plus disjoint parts
    whose vertices lack slot r for small r: three isolated vertices, a
    four-vertex path, and a vertex with a self-loop and one pendant
    neighbour.  So every neighbour round meets vertices without an edge
    or with one to themselves."""
    from repro.generators.components import component_fraction_graph
    from repro.graph.builder import build_csr
    from repro.graph.coo import EdgeList

    base = component_fraction_graph(150, 0.3, seed=3)
    src, dst = base.edge_array()
    n = base.num_vertices  # n, n + 1 and n + 2 stay isolated
    path = [(n + 3, n + 4), (n + 4, n + 5), (n + 5, n + 6)]
    loop = [(n + 7, n + 7), (n + 7, n + 8)]
    more_src, more_dst = np.array(path + loop).T
    edges = EdgeList(
        n + 9, np.concatenate((src, more_src)), np.concatenate((dst, more_dst))
    )
    return build_csr(edges, drop_self_loops=False)


def _check_algorithms(args: argparse.Namespace) -> int:
    """Validate that every parallel algorithm runs on every backend.

    Runs each name but ``sequential``, the reference, on a small
    multi-component graph (:func:`_algorithm_check_graph`) per backend kind
    and compares the labels against the scipy oracle's component-minimum
    labeling; exits non-zero on any mismatch (the CI gate behind
    ``repro algorithms --check``).
    """
    from repro.graph.properties import scipy_components

    graph = _algorithm_check_graph()
    comp = scipy_components(graph)
    n = graph.num_vertices
    mins = np.full(int(comp.max()) + 1, n, dtype=np.int64)
    np.minimum.at(mins, comp, np.arange(n, dtype=np.int64))
    expected = mins[comp]

    kinds = backend_kinds()
    if getattr(args, "backend", None):
        kinds = tuple(k for k in kinds if k == args.backend)

    failures = []
    checked = 0
    for kind in kinds:
        backend = make_backend(
            kind, workers=args.workers, ranks=getattr(args, "ranks", None)
        )
        for name in ALGORITHMS:
            if name == SEQUENTIAL:
                continue
            checked += 1
            try:
                result = repro.engine.run(name, graph, backend=backend)
                ok = np.array_equal(result.labels, expected)
            except ReproError as exc:
                failures.append(f"{name} [{kind}]: {exc}")
                continue
            if not ok:
                failures.append(f"{name} [{kind}]: labels diverge from oracle")
    if failures:
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        print(
            f"algorithms check: {len(failures)}/{checked} algorithm×backend "
            "combinations failed",
            file=sys.stderr,
        )
        return 1
    print(f"algorithms check: {checked} algorithm×backend combinations OK")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.bench.report import format_table
    from repro.bench.runner import run_algorithm

    algorithms = [algo.strip() for algo in args.algorithms.split(",")]
    # Every name is validated up front — a typo fails before the
    # (possibly expensive) graph load and timing runs — and algorithms
    # that cannot run on the requested substrate are skipped with a
    # notice rather than aborting the whole comparison.
    unsupported = [
        algo for algo in algorithms if not supports_backend(algo, args.backend)
    ]
    for algo in unsupported:
        print(f"note: {algo} does not support the {args.backend} backend; skipped")
    algorithms = [algo for algo in algorithms if algo not in unsupported]
    if not algorithms:
        print("error: no requested algorithm supports the backend", file=sys.stderr)
        return 1
    graph = _resolve_graph(args.graph, args.seed)
    backend = make_backend(
        args.backend, workers=args.workers,
        ranks=getattr(args, "ranks", None),
        label_dtype=getattr(args, "label_dtype", "auto"),
    )
    records = [
        run_algorithm(graph, algo, args.graph, repeats=args.repeats, backend=backend)
        for algo in algorithms
    ]
    baseline = records[0]
    rows = [
        [
            rec.algorithm,
            round(rec.median_seconds * 1000, 3),
            round(rec.p25_seconds * 1000, 3),
            round(rec.p75_seconds * 1000, 3),
            round(rec.speedup_over(baseline), 2),
        ]
        for rec in records
    ]
    print(
        format_table(
            f"algorithm comparison on {args.graph}",
            ["algorithm", "median_ms", "p25_ms", "p75_ms", f"speedup_vs_{baseline.algorithm}"],
            rows,
        )
    )
    if args.profile:
        for rec in records:
            _print_profile(rec)
    if args.trace_out:
        _write_compare_traces(records, args.trace_out, args.trace_format)
    return 0


def _write_compare_traces(records, path: str, format: str) -> None:
    """Export each record's profiled-sample trace.

    One algorithm writes exactly ``path``; several write ``stem-algo.ext``
    siblings so each algorithm's trace stays a self-contained file.
    """
    from pathlib import Path

    traced = [rec for rec in records if rec.trace is not None]
    base = Path(path)
    for rec in traced:
        dest = (
            base
            if len(traced) == 1
            else base.with_name(f"{base.stem}-{rec.algorithm}{base.suffix}")
        )
        write_trace(rec.trace, dest, format=format)
        print(f"trace written to {dest} ({format}, {rec.algorithm})")


def _print_profile(rec) -> None:
    """Print one record's per-phase wall-time breakdown, if it has one.

    Rows follow the first sample's span tree: phases directly under the
    ``total`` span flush left, nested ones (the distributed exchange's
    ``X-merge`` and ``X`` inside ``L<r>``, ``X-encode`` and ``X-send``
    inside ``X``) indented under the first phase they appear in, and
    repeated labels accumulate.  Coverage sums the top-level phases
    only, so no nested span counts twice.
    """
    spans = rec.trace.spans if rec.trace is not None else []
    total = next((s for s in spans if s.label == "total"), None)
    if total is None:
        print(f"\n{rec.algorithm}: no phase breakdown recorded")
        return
    rows: dict[tuple[int, str], float] = {}
    stack = [(child, 0) for child in reversed(total.children)]
    while stack:
        span, depth = stack.pop()
        if span.track is not None or span.t1 is None:
            continue
        key = (depth, span.label)
        rows[key] = rows.get(key, 0.0) + span.duration
        stack.extend((child, depth + 1) for child in reversed(span.children))
    wall = total.duration or 1.0
    print(f"\n{rec.algorithm} phase breakdown (first sample):")
    for (depth, label), secs in rows.items():
        name = "  " * depth + label
        print(f"  {name:<12} {secs * 1000:10.3f} ms  {secs / wall:6.1%}")
    covered = sum(secs for (depth, _), secs in rows.items() if depth == 0)
    print(
        f"  {'total':<12} {total.duration * 1000:10.3f} ms  "
        f"(phases cover {covered / wall:.1%}, "
        f"{1 - covered / wall:.1%} outside any phase)"
    )
    counters = {
        k: v
        for k, v in rec.extra.items()
        if k != "phase_seconds" and isinstance(v, (int, float))
    }
    if counters:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"  counters: {parts}")


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = load_trace(args.path)
    print(render_trace(trace, width=args.width))
    return 0


def _cmd_obs_runs(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    records = ledger.last(args.limit)
    if not records:
        print(f"no records in {ledger.path}")
        return 0
    print(
        f"{'run id':<22} {'kind':<10} {'run':<34} "
        f"{'backend':<11} {'ms':>10}"
    )
    for rec in records:
        print(
            f"{rec.run_id:<22} {rec.kind:<10} {rec.label():<34} "
            f"{rec.backend or '-':<11} {rec.seconds * 1000:>10.2f}"
        )
    print(f"\n{len(records)} record(s) from {ledger.path}")
    return 0


def _cmd_obs_show(args: argparse.Namespace) -> int:
    ledger = RunLedger(args.ledger)
    rec = ledger.resolve(args.run)
    if args.prom:
        sys.stdout.write(render_prometheus(rec))
        return 0
    print(f"run:        {rec.run_id}  ({rec.kind})")
    print(f"algorithm:  {rec.algorithm or '-'}")
    workers = "" if rec.workers is None else f", workers={rec.workers}"
    print(f"backend:    {rec.backend or '-'}{workers}")
    if rec.graph:
        print(
            f"graph:      {rec.graph.get('vertices', '?')} vertices, "
            f"{rec.graph.get('edges', '?')} edges "
            f"[{rec.graph.get('digest', '?')}]"
        )
    comps = "" if rec.num_components is None else f"  {rec.num_components} components"
    print(f"seconds:    {rec.seconds:.6f}{comps}")
    if rec.label_dtype_bits:
        print(f"labels:     int{rec.label_dtype_bits}")
    if rec.phase_seconds:
        print("phases:")
        for label, secs in rec.phase_seconds.items():
            print(f"  {label:<12} {secs * 1000:10.3f} ms")
    if rec.counters:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(rec.counters.items()))
        print(f"counters:   {parts}")
    if rec.gauges:
        parts = ", ".join(f"{k}={v:g}" for k, v in sorted(rec.gauges.items()))
        print(f"gauges:     {parts}")
    if rec.meta:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(rec.meta.items()))
        print(f"meta:       {parts}")
    return 0


def _obs_matrix_key(rec: dict) -> tuple[str, str, str]:
    return (
        str(rec.get("dataset", "?")),
        str(rec.get("algorithm", "?")),
        str(rec.get("backend", "?")),
    )


def _obs_source(
    arg: str, ledger_path: str | None
) -> tuple[str, Any]:
    """Resolve one ``obs diff`` operand.

    An existing file is sniffed by shape: a JSONL whose first record has
    a ``run_id`` is a run ledger (one entry per combination, latest
    wins); a JSON object with a ``records`` key is a report (``repro
    serve --output``); anything else is a trace file.  A non-file argument is a
    run reference (``latest``, ``-N``, or a run-id prefix) resolved
    against ``--ledger``.  Returns ``("matrix", {key: run})`` or
    ``("run", source)``.
    """
    path = Path(arg)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        try:
            head = json.loads(first)
        except ValueError:
            head = None
        if isinstance(head, dict) and head.get("run_id"):
            matrix: dict[tuple[str, str, str], Any] = {}
            for rec in RunLedger(path).records():
                dataset = (
                    rec.meta.get("dataset") or rec.graph.get("digest") or "?"
                )
                key = (
                    str(dataset),
                    rec.algorithm or "?",
                    rec.backend or "?",
                )
                matrix[key] = rec
            return "matrix", matrix
        try:
            whole = json.loads(text)
        except ValueError:
            whole = None
        if isinstance(whole, dict) and "records" in whole:
            matrix = {}
            for rec in whole.get("records") or []:
                if isinstance(rec, dict) and "median_seconds" in rec:
                    matrix[_obs_matrix_key(rec)] = rec
            return "matrix", matrix
        return "run", load_trace(arg)
    return "run", RunLedger(ledger_path).resolve(arg)


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    kind_a, a = _obs_source(args.run_a, args.ledger)
    kind_b, b = _obs_source(args.run_b, args.ledger)
    if kind_a != kind_b:
        raise ConfigurationError(
            "cannot diff a report/ledger matrix against a single run; "
            "pass two reports/ledgers or two runs/traces"
        )
    if kind_a == "matrix":
        pairs: list[tuple[str, RunDiff]] = []
        for key in sorted(set(a) & set(b)):
            name = "/".join(key)
            pairs.append(
                (name, diff_runs(a[key], b[key], label_a=name, label_b=name))
            )
        if not pairs:
            print("no comparable (dataset, algorithm, backend) combinations")
        for name, diff in sorted(
            pairs, key=lambda item: item[1].ratio, reverse=True
        ):
            print(diff.summary())
        markdown = attribution_markdown(pairs)
    else:
        diff = diff_runs(a, b)
        print(format_diff(diff))
        name = diff.label_b or diff.label_a or "run"
        markdown = attribution_markdown([(name, diff)])
    if args.summary_out:
        with open(args.summary_out, "a", encoding="utf-8") as fh:
            fh.write(markdown + "\n")
        print(f"markdown attribution appended to {args.summary_out}")
    return 0


def _cmd_obs_watch(args: argparse.Namespace) -> int:
    _check_algorithm(args.algorithm, args.backend)
    graph = _resolve_graph(args.graph, args.seed)
    rounds = 0

    def sink(event: HeartbeatEvent) -> None:
        nonlocal rounds
        rounds += 1
        print(format_event(event), flush=True)

    backend = make_backend(args.backend, workers=args.workers)
    t0 = time.perf_counter()
    result = repro.engine.run(
        args.algorithm, graph, backend=backend, heartbeat=HeartbeatMonitor(sink)
    )
    elapsed = time.perf_counter() - t0
    print(
        f"{args.algorithm}: {result.num_components} components in "
        f"{elapsed * 1000:.1f} ms ({rounds} rounds)"
    )
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    graph = _resolve_graph(args.input, args.seed)
    save_graph(graph, args.output)
    print(f"converted {args.input} -> {args.output}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.bench.serving import drive_session

    graph = _resolve_graph(args.graph, args.seed)
    record, service = drive_session(
        graph,
        args.graph,
        algorithm=args.algorithm,
        backend=args.backend,
        workers=args.workers,
        requests=args.requests,
        query_frac=args.query_frac,
        size_frac=args.size_frac,
        pair_batch=args.pair_batch,
        update_edges=args.update_edges,
        recompress_every=args.recompress_every,
        max_batch=args.max_batch,
        seed=args.seed,
        oracle=not args.no_oracle,
        ledger=args.ledger,
    )
    counters = record["counters"]
    print(
        f"served {args.graph}: {record['algorithm']} on {record['backend']}"
    )
    print(
        f"  requests    {record['requests']} "
        f"({counters.get('serve_batch_queries', 0)} query batches, "
        f"{counters.get('serve_updates', 0)} update bursts, "
        f"{counters.get('serve_coalesced', 0)} coalesced)"
    )
    print(f"  throughput  {record['throughput_rps']:.0f} req/s")
    print(
        f"  latency     p50 {record['p50_ms']:.3f} ms   "
        f"p95 {record['p95_ms']:.3f} ms   p99 {record['p99_ms']:.3f} ms"
    )
    print(
        f"  state       {record['epochs']} epochs published, "
        f"{record['edges_inserted']} stream edges absorbed, "
        f"{record['num_components']} components"
    )
    ok = True
    if not args.no_oracle:
        ok = bool(record["matches_oracle"])
        verdict = (
            "bit-identical to batch re-solve"
            if ok
            else "MISMATCH against batch re-solve"
        )
        print(f"  oracle      {record['oracle_epochs']} epochs {verdict}")
    if args.output:
        report = {
            "kind": "serving",
            "failures": 0 if ok else 1,
            "records": [record],
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"report written to {args.output}")
    if args.prom_out:
        with open(args.prom_out, "w", encoding="utf-8") as fh:
            fh.write(service.prometheus())
        print(f"prometheus metrics written to {args.prom_out}")
    if not ok:
        print(
            "error: a published epoch disagrees with the batch re-solve "
            "oracle",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the ``repro`` command line."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Afforest connected components (IPDPS 2018 reproduction)",
    )
    parser.add_argument(
        "--seed", type=int, default=42, help="seed for dataset: specs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset to a file")
    p.add_argument("dataset", choices=sorted(DATASETS))
    p.add_argument("output")
    p.add_argument("--size", choices=sorted(SIZE_TIERS), default="default")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("info", help="print graph statistics")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_info)

    # Enumerated from the name table so `--help` always lists exactly
    # the algorithms that will resolve.
    algo_names = ", ".join(available_algorithms())

    def add_backend_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--backend",
            choices=backend_kinds(),
            default="vectorized",
            help="execution substrate (default: vectorized)",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker count for the simulated backend (default: 4)",
        )
        p.add_argument(
            "--ranks",
            type=int,
            default=None,
            help="world size for the distributed backend (default: 4)",
        )
        p.add_argument(
            "--label-dtype",
            choices=LABEL_DTYPE_POLICIES,
            default="auto",
            help="parent-array width policy: auto narrows to int32 when "
            "the graph fits (results are identical; wide forces int64)",
        )

    def add_trace_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            help="export the profiled run's telemetry trace to this path",
        )
        p.add_argument(
            "--trace-format",
            choices=TRACE_FORMATS,
            default="chrome",
            help="trace file format (default: chrome, Perfetto-loadable)",
        )

    p = sub.add_parser("solve", help="compute connected components")
    p.add_argument("graph")
    p.add_argument(
        "-a",
        "--algorithm",
        default="afforest",
        help=f"algorithm name (default: afforest; one of: {algo_names})",
    )
    p.add_argument("--output", help="write labels to an .npz file")
    add_backend_args(p)
    add_trace_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("compare", help="time several algorithms on one graph")
    p.add_argument("graph")
    p.add_argument(
        "--algorithms", default="afforest,sv,lp,bfs,dobfs",
        help=f"comma-separated algorithm names (from: {algo_names})",
    )
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument(
        "--profile",
        action="store_true",
        help="print each algorithm's per-phase wall-time breakdown",
    )
    add_backend_args(p)
    add_trace_args(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser(
        "algorithms",
        help="list the algorithm names and their fixed parameters "
        "(--check validates every name on every backend)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="run every algorithm name on every backend against the "
        "scipy oracle; non-zero exit on any failure",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the simulated backend during --check",
    )
    p.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="restrict --check to one backend (default: all)",
    )
    p.add_argument(
        "--ranks",
        type=int,
        default=None,
        help="world size for the distributed backend during --check "
        "(default: 4)",
    )
    p.set_defaults(fn=_cmd_algorithms)

    p = sub.add_parser("convert", help="translate between graph file formats")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(fn=_cmd_convert)

    p = sub.add_parser(
        "serve",
        help="run the connectivity serving layer over one graph: solve "
        "once, drive a mixed query/update stream, report throughput and "
        "latency percentiles",
    )
    p.add_argument("graph")
    p.add_argument(
        "-a",
        "--algorithm",
        default="afforest",
        help=f"algorithm for the initial solve (one of: {algo_names})",
    )
    p.add_argument(
        "--backend",
        choices=backend_kinds(),
        default=None,
        help="backend for the initial solve (serving reads are "
        "vectorized NumPy regardless)",
    )
    p.add_argument("--workers", type=int, default=None)
    p.add_argument(
        "--requests", type=int, default=400,
        help="requests in the driven stream (default 400)",
    )
    p.add_argument(
        "--query-frac", type=float, default=0.8,
        help="fraction of requests that are pair-query batches",
    )
    p.add_argument(
        "--size-frac", type=float, default=0.1,
        help="fraction that are size-query batches (rest are updates)",
    )
    p.add_argument(
        "--pair-batch", type=int, default=32,
        help="vertex pairs per query request",
    )
    p.add_argument(
        "--update-edges", type=int, default=32,
        help="edges per insertion burst",
    )
    p.add_argument(
        "--recompress-every", type=int, default=1024,
        help="stream edges absorbed between re-compression epochs",
    )
    p.add_argument(
        "--max-batch", type=int, default=128,
        help="requests coalesced per worker-loop wakeup",
    )
    p.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip verifying each epoch against a batch re-solve",
    )
    p.add_argument("--output", help="write a JSON serving report here")
    p.add_argument(
        "--prom-out",
        metavar="PATH",
        help="write the session's Prometheus text exposition here",
    )
    p.add_argument(
        "--ledger",
        metavar="PATH",
        help='append a kind="serve" session record to this JSONL ledger',
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "trace", help="render a saved trace (jsonl or chrome) as ASCII"
    )
    p.add_argument("path")
    p.add_argument(
        "--width", type=int, default=48, help="timeline column width"
    )
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "obs",
        help="run-ledger tools: list, show, diff, and watch recorded runs",
    )
    obs = p.add_subparsers(dest="obs_command", required=True)

    def add_ledger_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ledger",
            default=None,
            metavar="PATH",
            help="ledger file (default: $REPRO_LEDGER or .repro/ledger.jsonl)",
        )

    q = obs.add_parser("runs", help="list the most recent recorded runs")
    add_ledger_arg(q)
    q.add_argument(
        "-n", "--limit", type=int, default=20, help="rows to show (newest last)"
    )
    q.set_defaults(fn=_cmd_obs_runs)

    q = obs.add_parser(
        "show", help="print one recorded run (--prom for Prometheus text)"
    )
    q.add_argument(
        "run", help="run reference: run-id prefix, 'latest', or -N"
    )
    add_ledger_arg(q)
    q.add_argument(
        "--prom",
        action="store_true",
        help="emit the run's metrics in Prometheus text exposition format",
    )
    q.set_defaults(fn=_cmd_obs_show)

    q = obs.add_parser(
        "diff",
        help="attribute the slowdown between two runs, reports, or ledgers",
    )
    q.add_argument(
        "run_a",
        help="baseline: a run reference, a trace file, a report "
        "(JSON with 'records'), or a ledger (JSONL)",
    )
    q.add_argument("run_b", help="candidate: same forms as the baseline")
    add_ledger_arg(q)
    q.add_argument(
        "--summary-out",
        metavar="PATH",
        help="append the markdown attribution table to this file "
        "(point at $GITHUB_STEP_SUMMARY in CI)",
    )
    q.set_defaults(fn=_cmd_obs_diff)

    q = obs.add_parser(
        "watch", help="run an algorithm and stream live per-round progress"
    )
    q.add_argument("graph")
    q.add_argument(
        "-a",
        "--algorithm",
        default="afforest",
        help=f"algorithm name (one of: {algo_names})",
    )
    q.add_argument(
        "--backend",
        choices=backend_kinds(),
        default="vectorized",
        help="execution substrate (default: vectorized)",
    )
    q.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for the simulated backend",
    )
    q.set_defaults(fn=_cmd_obs_watch)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # well-behaved Unix tools do.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
