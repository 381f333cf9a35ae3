"""The run ledger: a durable, append-only store of run records.

Counters and spans evaporate when the process exits; the ledger is the
piece that makes them durable.  Every recorded ``engine.run`` or
serving session appends one self-contained :class:`RunRecord` — a
JSON line carrying the algorithm name, the backend and worker count, a
graph fingerprint, per-phase wall seconds from the trace, every
counter/gauge/histogram snapshot, the label dtype the run actually
used, and an environment snapshot — to a JSONL file (default
``.repro/ledger.jsonl``; override per-ledger or via the
``REPRO_LEDGER`` environment variable).

Records are self-contained on purpose: two entries can be diffed
(:mod:`repro.obs.diff`) or exported as Prometheus text
(:mod:`repro.obs.promexport`) weeks apart, on another machine, without
the graph or the code that produced them.

The module is dependency-light by design (stdlib + the trace types):
it imports nothing from :mod:`repro.engine` or :mod:`repro.serve`, so
both layers can write to it without cycles.  Results and graphs are
duck-typed for the same reason.
"""

from __future__ import annotations

import json
import os
import platform
import time
import uuid
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any

from repro.obs.trace import Trace

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "LEDGER_ENV",
    "RunLedger",
    "RunRecord",
    "env_snapshot",
    "fingerprint_graph",
    "record_from_result",
    "resolve_ledger",
]

#: ledger location used when neither the caller nor the environment says
#: otherwise (relative to the current working directory).
DEFAULT_LEDGER_PATH = ".repro/ledger.jsonl"

#: environment variable naming the ledger file; when set, ``engine.run``
#: records every run there without being asked per-call.
LEDGER_ENV = "REPRO_LEDGER"

#: elements sampled from each CSR array when fingerprinting a graph.
_FINGERPRINT_SAMPLE = 1024


def fingerprint_graph(graph: Any) -> dict[str, Any]:
    """A compact, stable identity for a graph: sizes plus a digest.

    The digest hashes the vertex/edge counts and a strided sample of the
    CSR arrays (up to :data:`_FINGERPRINT_SAMPLE` elements each), so it
    is cheap on huge graphs yet changes whenever the topology does.
    Works on anything exposing ``num_vertices`` and an edge count
    (``num_directed_edges`` preferred: on CSR graphs the undirected
    ``num_edges`` pays a full self-loop scan, too slow for a per-run
    fingerprint) and, optionally, ``indptr`` / ``indices``.
    """
    n = int(getattr(graph, "num_vertices", 0))
    m = getattr(graph, "num_directed_edges", None)
    if m is None:
        m = getattr(graph, "num_edges", 0)
    m = int(m)
    h = blake2b(digest_size=8)
    h.update(f"{n}:{m}".encode())
    for attr in ("indptr", "indices"):
        arr = getattr(graph, attr, None)
        if arr is None:
            continue
        step = max(1, len(arr) // _FINGERPRINT_SAMPLE)
        sample = arr[::step]
        h.update(
            sample.tobytes()
            if hasattr(sample, "tobytes")
            else bytes(sample)
        )
    return {"vertices": n, "edges": m, "digest": h.hexdigest()}


def env_snapshot() -> dict[str, Any]:
    """The environment facts worth keeping next to a measurement."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "pid": os.getpid(),
        "cpu_count": os.cpu_count(),
    }


def _new_run_id(timestamp: float) -> str:
    return f"r{int(timestamp * 1000):012x}-{uuid.uuid4().hex[:6]}"


@dataclass
class RunRecord:
    """One ledger entry: everything a later diff needs, self-contained.

    ``kind`` distinguishes the writer (``"engine.run"`` vs ``"serve"``);
    ``seconds`` is the run's wall time as measured by the writer (for
    serve records, the whole session); ``meta`` is free-form writer
    context (dataset name, algorithm params).
    """

    run_id: str = ""
    timestamp: float = 0.0
    kind: str = "engine.run"
    algorithm: str = ""
    backend: str = ""
    workers: int | None = None
    graph: dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    phase_seconds: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Any] = field(default_factory=dict)
    label_dtype_bits: int | None = None
    num_components: int | None = None
    env: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        """Short human identity: ``algorithm/dataset/backend``."""
        dataset = self.meta.get("dataset") or self.graph.get("digest") or "?"
        parts = [self.algorithm or "?", str(dataset)]
        if self.backend:
            parts.append(self.backend)
        return "/".join(parts)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        d: dict[str, Any] = {
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "algorithm": self.algorithm,
            "backend": self.backend,
            "workers": self.workers,
            "graph": self.graph,
            "seconds": self.seconds,
            "phase_seconds": self.phase_seconds,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "label_dtype_bits": self.label_dtype_bits,
            "num_components": self.num_components,
            "env": self.env,
            "meta": self.meta,
        }
        return d

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        """Rebuild a record, tolerating extra/missing keys."""
        rec = cls()
        for key in (
            "run_id",
            "kind",
            "algorithm",
            "backend",
        ):
            value = data.get(key)
            if value is not None:
                setattr(rec, key, str(value))
        rec.timestamp = float(data.get("timestamp") or 0.0)
        rec.seconds = float(data.get("seconds") or 0.0)
        workers = data.get("workers")
        rec.workers = None if workers is None else int(workers)
        bits = data.get("label_dtype_bits")
        rec.label_dtype_bits = None if bits is None else int(bits)
        comps = data.get("num_components")
        rec.num_components = None if comps is None else int(comps)
        for key in (
            "graph",
            "phase_seconds",
            "counters",
            "gauges",
            "histograms",
            "env",
            "meta",
        ):
            value = data.get(key)
            if isinstance(value, dict):
                setattr(rec, key, dict(value))
        return rec


def record_from_result(
    result: Any,
    *,
    graph: Any = None,
    kind: str = "engine.run",
    seconds: float | None = None,
    timestamp: float | None = None,
    meta: dict[str, Any] | None = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a finished run.

    ``result`` is duck-typed against :class:`~repro.engine.result.CCResult`
    (``algorithm``/``backend``/``counters``/``phase_seconds``/
    ``trace``/``num_components``); anything missing stays at its default,
    so callers can pass lighter objects.
    """
    trace = getattr(result, "trace", None)
    gauges: dict[str, float] = {}
    histograms: dict[str, Any] = {}
    workers: int | None = None
    if isinstance(trace, Trace):
        gauges = dict(trace.gauges)
        histograms = dict(trace.histograms)
        raw_workers = trace.meta.get("workers")
        workers = None if raw_workers is None else int(raw_workers)
    bits = gauges.get("label_dtype_bits")
    now = time.time() if timestamp is None else timestamp
    total = getattr(result, "phase_seconds", {}).get("total", 0.0)
    try:
        components = int(getattr(result, "num_components"))
    except Exception:
        components = None
    return RunRecord(
        run_id=_new_run_id(now),
        timestamp=now,
        kind=kind,
        algorithm=str(getattr(result, "algorithm", "") or ""),
        backend=str(getattr(result, "backend", "") or ""),
        workers=workers,
        graph=fingerprint_graph(graph) if graph is not None else {},
        seconds=float(total if seconds is None else seconds),
        phase_seconds=dict(getattr(result, "phase_seconds", {}) or {}),
        counters=dict(getattr(result, "counters", {}) or {}),
        gauges=gauges,
        histograms=histograms,
        label_dtype_bits=None if bits is None else int(bits),
        num_components=components,
        env=env_snapshot(),
        meta=dict(meta or {}),
    )


class RunLedger:
    """Append-only JSONL store of :class:`RunRecord` entries.

    Appends are single ``write()`` calls of one line, so concurrent
    writers (parallel runs, serving sessions) can
    share a ledger without a lock on POSIX filesystems.  Reads tolerate
    malformed lines — a torn write costs one record, not the ledger.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        if path is None:
            path = os.environ.get(LEDGER_ENV) or DEFAULT_LEDGER_PATH
        self.path = Path(path)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunLedger({str(self.path)!r})"

    def append(self, record: RunRecord) -> RunRecord:
        """Write one record; creates the ledger (and parents) on demand."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        return record

    def records(self) -> list[RunRecord]:
        """Every readable record, oldest first ([] for a missing file)."""
        if not self.path.exists():
            return []
        out: list[RunRecord] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if isinstance(data, dict) and data.get("run_id"):
                out.append(RunRecord.from_dict(data))
        return out

    def last(self, n: int = 1) -> list[RunRecord]:
        """The most recent ``n`` records, oldest of them first."""
        return self.records()[-n:]

    def resolve(self, ref: str) -> RunRecord:
        """A record by reference: run-id prefix, ``latest``, or ``-N``.

        ``-1`` is the newest entry, ``-2`` the one before, mirroring git
        revision arithmetic; any other string matches records whose
        ``run_id`` starts with it and must be unambiguous.
        """
        from repro.errors import ConfigurationError

        records = self.records()
        if not records:
            raise ConfigurationError(f"ledger {self.path} has no records")
        if ref in ("latest", "last", "-1"):
            return records[-1]
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(records):
                raise ConfigurationError(
                    f"ledger {self.path} has only {len(records)} records"
                    f" (asked for {ref})"
                )
            return records[index]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise ConfigurationError(
                f"no ledger record matches {ref!r} in {self.path}"
            )
        if len(matches) > 1:
            ids = ", ".join(r.run_id for r in matches[:4])
            raise ConfigurationError(
                f"run reference {ref!r} is ambiguous ({ids}, ...)"
            )
        return matches[0]


def resolve_ledger(
    record: bool | str | Path | RunLedger | None,
) -> RunLedger | None:
    """Normalise ``engine.run(record=...)`` into a ledger (or None).

    ``None`` consults :data:`LEDGER_ENV` — recording stays off unless
    the variable names a file.  ``True`` uses the default resolution
    chain, ``False`` forces recording off, a path records there, and a
    ready :class:`RunLedger` is used as-is.
    """
    if record is None:
        return RunLedger() if os.environ.get(LEDGER_ENV) else None
    if record is False:
        return None
    if record is True:
        return RunLedger()
    if isinstance(record, RunLedger):
        return record
    return RunLedger(record)
