"""End-to-end benchmark: file -> labels, in-memory solves, a serving session.

Usage (from the root of a checkout)::

    python3 bench/e2e.py --workload solve-road --seed 1 --seconds 8 --trace 0

Workloads (``e2e_workloads.py``): ``file-powerlaw``, ``solve-road``,
``serve-mixed`` and ``solve-dist``.  One run:

1. sets the workload up three times from ``(workload, seed)`` and reports
   the median as ``setup_s`` (generation, ``.el`` write, service build);
2. computes the sequential union-find oracle once, outside all timing;
3. runs one untimed warm-up job, then timed jobs until their summed time
   reaches ``--seconds`` (at least three), checking every job against the
   oracle outside the timed region;
4. prints a report and, as the last line, one JSON object
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``job_s``,
``setup_s``, ``peak_rss_mb``).  With ``--trace 1`` jobs alternate between
untraced and traced, the traced ones run with every layer entry point
wrapped in a span (``e2e_trace.py``); the metrics are then the per-layer
ones plus the tracing overhead (traced minus untraced ``job_s``), and the
spans are exported through ``repro.obs`` to ``.bench_work/`` so that
``repro trace <file>`` renders them.  End-to-end numbers come only from
untraced runs.

Any oracle mismatch, and any serving request refused or answered with
an exception, counts as a failed operation; the run then exits with
code 1.  An exception in a job ends the run with a traceback (code 1).
If the ``repro`` package of this checkout cannot be imported, the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("file-powerlaw", "solve-road", "serve-mixed", "solve-dist")
SETUP_REPEATS = 3
MIN_JOBS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap native thread pools at ``nproc``; must run before NumPy loads."""
    limit = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, limit))
        except ValueError:
            current = limit
        os.environ[var] = str(max(1, min(current, limit)))


def llc_bytes() -> int | None:
    """Last-level cache size as the kernel reports it (None if unknown)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = None
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:], 1)
        size = int(text.rstrip("KMG")) * scale
        if best is None or level >= best[0]:
            best = (level, size)
    return None if best is None else best[1]


class PeakRss:
    """Peak resident set size over the timed jobs.

    Before each job, freed heap is returned to the OS (glibc
    ``malloc_trim``) and the kernel's high-water mark is reset through
    ``/proc/self/clear_refs``; after it, the mark is read.  Each job thus
    starts from what the run keeps alive (graph, oracle), so neither
    set-up garbage nor allocator growth over many jobs sets the peak.
    The report is the median job's peak, which heap fragmentation moves
    less than the maximum.  Without a resettable mark the lifetime peak
    is reported instead.
    """

    def __init__(self) -> None:
        self.resettable = True
        self.peaks: list[float] = []

    @property
    def peak_mb(self) -> float:
        return statistics.median(self.peaks)

    def start(self) -> None:
        gc.collect()
        try:
            ctypes.CDLL(None).malloc_trim(0)
        except (OSError, AttributeError):
            pass
        if self.resettable:
            try:
                Path("/proc/self/clear_refs").write_text("5")
            except OSError:
                self.resettable = False

    def stop(self) -> None:
        self.peaks.append(self._hwm_mb())

    @staticmethod
    def _hwm_mb() -> float:
        try:
            for line in Path("/proc/self/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        except OSError:
            pass
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny inputs for a quick check of the harness itself",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def import_checkout() -> object:
    """Import ``repro`` from this checkout's ``src`` (never an installed
    copy) and the workload modules that use it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    origin = Path(repro.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not from {src}")
    import e2e_workloads

    return e2e_workloads


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cap_threads()
    try:
        workloads = import_checkout()
    except ImportError as exc:
        print(f"e2e: cannot import this checkout's repro package: {exc}",
              file=sys.stderr)
        return 2
    return run(args, workloads)


@dataclass
class Measured:
    """Everything one run measured, before it is reported."""

    setup: list[float]
    oracle_s: float
    facts: dict
    times: dict[bool, list[float]]
    peak_rss_mb: float
    peak_resettable: bool
    attempted: int
    failed: int
    extra: list
    layer_rows: list[dict[str, float]]
    roots: list


def measure(args: argparse.Namespace, W, workdir: Path) -> Measured:
    """Set up, compute the oracle, warm up, then time checked jobs."""
    from repro.obs.trace import Tracer

    import e2e_trace

    wl = W.WORKLOADS[args.workload](args.seed, args.size, workdir)
    off = Tracer(False)
    counts = [0, 0]  # attempted, failed

    def checked(output) -> None:
        attempted, failed = wl.check(output)
        counts[0] += attempted
        counts[1] += failed

    try:
        setup = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            wl.setup()
            setup.append(perf_counter() - t)
        facts = wl.input_facts()
        t = perf_counter()
        oracle = W.oracle_labels(wl.graph)
        oracle_s = perf_counter() - t
        wl.expect(oracle)

        wl.prepare()
        checked(wl.job(off))  # warm-up: caches, lazy imports, registries

        peak = PeakRss()
        times: dict[bool, list[float]] = {False: [], True: []}
        roots, layer_rows = [], []
        while (
            len(times[False]) < MIN_JOBS
            or (args.trace and len(times[True]) < MIN_JOBS)
            or sum(times[False]) + sum(times[True]) < args.seconds
        ):
            traced = bool(args.trace) and len(times[True]) < len(times[False])
            wl.prepare()
            peak.start()
            if traced:
                tracer = Tracer(True)
                with e2e_trace.instrumented(tracer), tracer.span("job") as root:
                    t = perf_counter()
                    output = wl.job(tracer)
                    dt = perf_counter() - t
                roots.append(root)
                layer_rows.append(e2e_trace.layer_metrics(root))
            else:
                t = perf_counter()
                output = wl.job(off)
                dt = perf_counter() - t
            peak.stop()
            times[traced].append(dt)
            checked(output)
            if not traced:
                wl.record(output)
        extra = wl.report()
    finally:
        wl.close()
    return Measured(
        setup=setup,
        oracle_s=oracle_s,
        facts=facts,
        times=times,
        peak_rss_mb=peak.peak_mb,
        peak_resettable=peak.resettable,
        attempted=counts[0],
        failed=counts[1],
        extra=extra,
        layer_rows=layer_rows,
        roots=roots,
    )


def run(args: argparse.Namespace, W) -> int:
    from repro.obs.export import write_trace
    from repro.obs.trace import Trace

    import e2e_trace

    t_run = perf_counter()
    workdir = ROOT / ".bench_work"
    workdir.mkdir(exist_ok=True)
    m = measure(args, W, workdir)

    untraced = m.times[False]
    job_s = statistics.median(untraced)
    setup_s = statistics.median(m.setup)
    deciles = statistics.quantiles(untraced, n=10)
    print(f"# e2e workload={args.workload} seed={args.seed} size={args.size}"
          f" trace={args.trace} seconds={args.seconds:g}")
    print(f"machine: nproc={nproc()} llc_bytes={llc_bytes()}"
          f" python={platform.python_version()} numpy={W.np.__version__}")
    print("input: " + " ".join(f"{k}={v}" for k, v in m.facts.items()))
    print("  (csr_bytes/el_bytes are computed array and file sizes; the"
          " inputs fit in under 4x LLC, so no figure here is measured"
          " memory bandwidth)")
    print(f"oracle: sequential_components {m.oracle_s:.3f} s (untimed)")
    print(f"setup_s {setup_s:.4f} s  (median of {len(m.setup)}: "
          + ", ".join(f"{s:.3f}" for s in m.setup) + ")")
    print(f"job_s {job_s:.4f} s  (median of {len(untraced)} untraced jobs;"
          f" p10 {deciles[0]:.4f}, p90 {deciles[-1]:.4f})")
    if not m.peak_resettable:
        print("peak_rss_mb: high-water mark could not be reset; includes set-up")
    print(f"peak_rss_mb {m.peak_rss_mb:.1f} MB  (median over timed jobs of"
          " each job's peak)")
    for name, value, unit, note in m.extra:
        print(f"{name} {value:.4g} {unit}  ({note})")
    frac = m.failed / m.attempted if m.attempted else 1.0
    print(f"ops_failed_frac {frac:.6g}  ({m.failed} of {m.attempted} operations)")

    if args.trace:
        values = {
            name: statistics.median(row[name] for row in m.layer_rows)
            for name in m.layer_rows[0]
        }
        values["engine.oracle_s"] = m.oracle_s
        values["trace.overhead_s"] = statistics.median(m.times[True]) - job_s
        uncovered = statistics.median(
            e2e_trace.self_seconds(root) for root in m.roots
        )
        print(f"trace.overhead_s {values['trace.overhead_s']:.4f} s (traced"
              f" minus untraced job_s); time outside top-level layer spans"
              f" {uncovered:.4f} s per traced job")
        trace = Trace(m.roots, meta={"workload": args.workload,
                                     "seed": args.seed, "size": args.size})
        out = workdir / f"trace-{args.workload}-s{args.seed}-{args.size}.json"
        write_trace(trace, out, format="chrome")
        print(f"trace: {len(m.roots)} traced jobs written to {out}"
              f" (render with: repro trace {out})")
        for line in e2e_trace.self_time_table(trace):
            print("  " + line)
        units = e2e_trace.LAYER_METRICS
    else:
        values = {"job_s": job_s, "setup_s": setup_s,
                  "peak_rss_mb": m.peak_rss_mb}
        units = END_TO_END_UNITS
    print(f"run wall seconds {perf_counter() - t_run:.1f}")
    correct = m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
