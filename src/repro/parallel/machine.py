"""The simulated parallel machine.

:class:`SimulatedMachine` executes *kernel generators* over partitioned item
ranges.  A kernel is a generator function

``kernel(ctx: KernelContext, item: int, *args) -> Generator``

whose shared-memory accesses go through ``ctx`` helpers (``yield from
ctx.read(...)`` etc.).  Each helper yields once before touching memory, so
the machine can interleave workers at shared-operation granularity — the
faithful analogue of PRAM-style concurrent execution, and the level at
which the paper's CAS reasoning (Lemmas 4–5) operates.

Interleaving policies:

- ``roundrobin`` — workers advance one shared op each in fixed rotation
  (deterministic; the default);
- ``random`` — a seeded RNG picks which worker steps next (used by the
  property tests to hunt for interleaving-dependent invariant violations);
- ``sequential`` — each worker runs to completion before the next starts
  (degenerate schedule; useful as a differential-testing extreme).

The machine also serves as the instrumentation hub: per-phase per-worker
step counts (work/span), read/write/CAS counters, and an optional
:class:`~repro.parallel.memtrace.MemoryTrace`.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable, Sequence

import numpy as np

from repro.constants import COUNTER_DTYPE
from repro.errors import ConfigurationError
from repro.parallel import memtrace as mt
from repro.parallel.memtrace import MemoryTrace
from repro.parallel.metrics import PhaseStats, RunStats
from repro.parallel.scheduler import partition_indices

__all__ = ["KernelContext", "SimulatedMachine"]


class KernelContext:
    """Per-worker handle through which kernels touch shared memory.

    All helpers are generators; kernels invoke them with ``yield from`` so
    the machine gains a preemption point before every shared access.
    """

    __slots__ = ("worker_id", "_machine")

    def __init__(self, worker_id: int, machine: "SimulatedMachine") -> None:
        self.worker_id = worker_id
        self._machine = machine

    def read(self, array: np.ndarray, idx: int) -> Generator[None, None, int]:
        """Shared read of ``array[idx]``."""
        yield
        self._machine._account(self.worker_id, idx, mt.OP_READ)
        return int(array[idx])

    def write(
        self, array: np.ndarray, idx: int, value: int
    ) -> Generator[None, None, None]:
        """Shared (unconditional) write of ``array[idx]``."""
        yield
        self._machine._account(self.worker_id, idx, mt.OP_WRITE)
        array[idx] = value

    def cas(
        self, array: np.ndarray, idx: int, expected: int, new: int
    ) -> Generator[None, None, bool]:
        """Atomic compare-and-swap on ``array[idx]``.

        The compare and the conditional write happen inside a single resume
        of the generator — i.e. atomically with respect to all other
        workers, exactly like a hardware CAS.
        """
        yield
        if int(array[idx]) == expected:
            array[idx] = new
            self._machine._account(self.worker_id, idx, mt.OP_CAS_SUCCESS)
            return True
        self._machine._account(self.worker_id, idx, mt.OP_CAS_FAIL)
        return False


class SimulatedMachine:
    """A ``p``-worker shared-memory machine with deterministic scheduling.

    Parameters
    ----------
    num_workers:
        Worker count ``p``.
    schedule:
        Item partitioning across workers (see
        :func:`~repro.parallel.scheduler.partition_indices`).
    chunk_size:
        Default chunk granularity for the ``chunk`` schedule (overridable
        per ``parallel_for`` call).
    interleave:
        ``roundrobin`` | ``random`` | ``sequential`` step ordering.
    seed:
        RNG seed for the ``random`` interleave policy.
    trace:
        Optional :class:`MemoryTrace` capturing every shared access.
    """

    def __init__(
        self,
        num_workers: int = 4,
        *,
        schedule: str = "block",
        chunk_size: int | None = None,
        interleave: str = "roundrobin",
        seed: int = 0,
        trace: MemoryTrace | None = None,
    ) -> None:
        if num_workers < 1:
            raise ConfigurationError(
                f"num_workers must be >= 1, got {num_workers}"
            )
        if interleave not in ("roundrobin", "random", "sequential"):
            raise ConfigurationError(
                f"unknown interleave policy {interleave!r}"
            )
        self.num_workers = num_workers
        self.schedule = schedule
        self.chunk_size = chunk_size
        self.interleave = interleave
        self._rng = np.random.default_rng(seed)
        self.trace = trace
        self.stats = RunStats(num_workers=num_workers, phases=[])
        self._phase: PhaseStats | None = None

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def _account(self, worker: int, address: int, op: int) -> None:
        ph = self._phase
        if ph is not None:
            ph.worker_steps[worker] += 1
            if op == mt.OP_READ:
                ph.reads += 1
            elif op == mt.OP_WRITE:
                ph.writes += 1
            elif op == mt.OP_CAS_SUCCESS:
                ph.cas_attempts += 1
            else:
                ph.cas_attempts += 1
                ph.cas_failures += 1
        if self.trace is not None:
            self.trace.record(address, worker, op)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def parallel_for(
        self,
        items: int | np.ndarray | Sequence[int],
        kernel: Callable[..., Generator],
        *args,
        phase: str = "parallel_for",
        chunk_size: int | None = None,
    ) -> PhaseStats:
        """Run ``kernel(ctx, item, *args)`` over all items in parallel.

        ``items`` is an item count or an explicit item array; partitioning
        follows the machine's schedule.  Returns the phase statistics.
        """
        if not isinstance(items, (int, np.integer, np.ndarray)):
            items = np.asarray(items)
        if chunk_size is None:
            chunk_size = self.chunk_size
        if isinstance(items, (int, np.integer)):
            items_arr = np.arange(int(items), dtype=np.int64)
        else:
            items_arr = np.ascontiguousarray(items, dtype=np.int64)

        ph = PhaseStats(
            label=phase,
            worker_steps=np.zeros(self.num_workers, dtype=COUNTER_DTYPE),
        )
        self.stats.phases.append(ph)
        if self.trace is not None:
            self.trace.begin_phase(phase)
        self._phase = ph
        try:
            if self.schedule == "dynamic":
                self._drive_dynamic(items_arr, kernel, args, chunk_size)
            else:
                kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
                parts = partition_indices(
                    items_arr, self.num_workers,
                    schedule=self.schedule, **kwargs,
                )
                self._drive(parts, kernel, args)
        finally:
            self._phase = None
        return ph

    def _drive_dynamic(
        self,
        items: np.ndarray,
        kernel: Callable[..., Generator],
        args: tuple,
        chunk_size: int | None,
    ) -> None:
        """Shared-queue scheduling: an idle worker pulls the next chunk.

        The faithful analogue of ``omp schedule(dynamic, chunk)``: no
        worker owns items in advance, so stragglers (e.g. hub vertices)
        cannot strand work on one worker.  Runs under the same
        interleaving policies as the static schedules.
        """
        chunk = chunk_size if chunk_size else max(items.shape[0] // (8 * self.num_workers), 1)
        cursor = 0

        def pull() -> list[int]:
            nonlocal cursor
            lo = cursor
            cursor = min(cursor + chunk, items.shape[0])
            return items[lo:cursor].tolist()

        p = self.num_workers
        contexts = [KernelContext(w, self) for w in range(p)]
        queues: list[list[int]] = [[] for _ in range(p)]
        active: list[Generator | None] = [None] * p

        def start_next(w: int) -> bool:
            while True:
                if not queues[w]:
                    queues[w] = pull()
                    if not queues[w]:
                        active[w] = None
                        return False
                item = queues[w].pop(0)
                gen = kernel(contexts[w], item, *args)
                try:
                    next(gen)
                except StopIteration:
                    continue
                active[w] = gen
                return True

        def step(w: int) -> None:
            gen = active[w]
            try:
                next(gen)
            except StopIteration:
                alive[w] = start_next(w)

        alive = [start_next(w) for w in range(p)]
        if self.interleave == "sequential":
            for w in range(p):
                while alive[w]:
                    step(w)
            return
        if self.interleave == "random":
            while True:
                candidates = [w for w in range(p) if alive[w]]
                if not candidates:
                    break
                step(int(self._rng.choice(candidates)))
            return
        while any(alive):
            for w in range(p):
                if alive[w]:
                    step(w)

    def _drive(
        self,
        parts: list[np.ndarray],
        kernel: Callable[..., Generator],
        args: tuple,
    ) -> None:
        p = self.num_workers
        contexts = [KernelContext(w, self) for w in range(p)]
        item_iters: list[Iterable[int]] = [iter(part.tolist()) for part in parts]
        active: list[Generator | None] = [None] * p

        def start_next(w: int) -> bool:
            """Pull the worker's next item and run its kernel to the first
            preemption point; False when the worker is out of items."""
            for item in item_iters[w]:
                gen = kernel(contexts[w], item, *args)
                try:
                    next(gen)  # run to first yield (no shared access yet)
                except StopIteration:
                    continue  # kernel performed no shared ops
                active[w] = gen
                return True
            active[w] = None
            return False

        def step(w: int) -> None:
            """Advance worker ``w`` by one shared operation."""
            gen = active[w]
            try:
                next(gen)
            except StopIteration:
                alive[w] = start_next(w)

        alive = [start_next(w) for w in range(p)]

        if self.interleave == "sequential":
            for w in range(p):
                while alive[w]:
                    step(w)
            return

        if self.interleave == "random":
            while True:
                candidates = [w for w in range(p) if alive[w]]
                if not candidates:
                    break
                step(int(self._rng.choice(candidates)))
            return

        # roundrobin
        while any(alive):
            for w in range(p):
                if alive[w]:
                    step(w)
