"""Memory access tracing for the Fig. 7 analysis.

Hardware papers collect π-array access traces with binary instrumentation;
here the instrumented kernels report every shared read/write/CAS to a
:class:`MemoryTrace`, which stores the stream as growable column arrays:
``(address, worker, phase, op)``.

Phases are registered by label in execution order, so the Fig. 7 bottom
panels (per-thread scatter with I/L/C/F/H phase bands) fall directly out of
the trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: op codes in the trace stream.
OP_READ = 0
OP_WRITE = 1
OP_CAS_SUCCESS = 2
OP_CAS_FAIL = 3

OP_NAMES = {
    OP_READ: "read",
    OP_WRITE: "write",
    OP_CAS_SUCCESS: "cas",
    OP_CAS_FAIL: "cas-fail",
}

_CHUNK = 1 << 16


@dataclass(frozen=True)
class TraceArrays:
    """The completed trace as parallel column arrays."""

    address: np.ndarray
    worker: np.ndarray
    phase: np.ndarray
    op: np.ndarray
    phase_labels: tuple[str, ...]

    @property
    def num_events(self) -> int:
        return int(self.address.shape[0])


class MemoryTrace:
    """Growable columnar log of shared-memory accesses."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []
        self._buf = np.empty((_CHUNK, 4), dtype=np.int64)
        self._fill = 0
        self._phases: list[str] = []

    # ------------------------------------------------------------------ #

    def begin_phase(self, label: str) -> int:
        """Register a new phase; returns its index."""
        self._phases.append(label)
        return len(self._phases) - 1

    def record(self, address: int, worker: int, op: int) -> None:
        """Append one access event (attributed to the current phase)."""
        if self._fill == _CHUNK:
            self._chunks.append(self._buf)
            self._buf = np.empty((_CHUNK, 4), dtype=np.int64)
            self._fill = 0
        row = self._buf[self._fill]
        row[0] = address
        row[1] = worker
        row[2] = len(self._phases) - 1
        row[3] = op
        self._fill += 1

    # ------------------------------------------------------------------ #

    def finalize(self) -> TraceArrays:
        """Freeze the trace into column arrays."""
        parts = self._chunks + [self._buf[: self._fill]]
        data = np.concatenate(parts, axis=0) if parts else np.empty((0, 4))
        return TraceArrays(
            address=data[:, 0].copy(),
            worker=data[:, 1].copy(),
            phase=data[:, 2].copy(),
            op=data[:, 3].copy(),
            phase_labels=tuple(self._phases),
        )

    def __len__(self) -> int:
        return len(self._chunks) * _CHUNK + self._fill
