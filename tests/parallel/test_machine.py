"""Tests for the simulated parallel machine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.parallel import MemoryTrace, SimulatedMachine


def write_kernel(ctx, item, arr):
    """Each item writes its own slot (no races)."""
    yield from ctx.write(arr, item, item * 10)


def increment_kernel(ctx, item, arr, slot):
    """Racy read-modify-write on a shared slot (intentionally non-atomic)."""
    val = yield from ctx.read(arr, slot)
    yield from ctx.write(arr, slot, val + 1)


def cas_increment_kernel(ctx, item, arr, slot):
    """Atomic increment via CAS retry loop."""
    while True:
        val = yield from ctx.read(arr, slot)
        ok = yield from ctx.cas(arr, slot, val, val + 1)
        if ok:
            return


class TestBasicExecution:
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    @pytest.mark.parametrize("interleave", ["roundrobin", "random", "sequential"])
    def test_all_items_processed(self, workers, interleave):
        arr = np.zeros(20, dtype=np.int64)
        m = SimulatedMachine(workers, interleave=interleave, seed=1)
        m.parallel_for(20, write_kernel, arr)
        assert arr.tolist() == [i * 10 for i in range(20)]

    def test_explicit_item_array(self):
        arr = np.zeros(10, dtype=np.int64)
        m = SimulatedMachine(3)
        m.parallel_for(np.array([1, 3, 5]), write_kernel, arr)
        assert arr[1] == 10 and arr[3] == 30 and arr[5] == 50
        assert arr[0] == 0

    def test_zero_items(self):
        m = SimulatedMachine(2)
        ph = m.parallel_for(0, write_kernel, np.zeros(1, dtype=np.int64))
        assert ph.work == 0

    def test_kernel_without_shared_ops(self):
        def noop_kernel(ctx, item):
            return
            yield  # pragma: no cover

        m = SimulatedMachine(2)
        ph = m.parallel_for(5, noop_kernel)
        assert ph.work == 0

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            SimulatedMachine(0)

    def test_rejects_unknown_interleave(self):
        with pytest.raises(ConfigurationError):
            SimulatedMachine(2, interleave="optimistic")


class TestRaceSemantics:
    def test_lost_updates_with_plain_write(self):
        """Round-robin interleaving makes the read-modify-write race
        manifest: all workers read 0 before anyone writes."""
        arr = np.zeros(1, dtype=np.int64)
        m = SimulatedMachine(4, schedule="cyclic")
        m.parallel_for(4, increment_kernel, arr, 0)
        # 4 increments, but lost updates leave the count below 4.
        assert arr[0] < 4

    def test_cas_loop_never_loses_updates(self):
        for interleave in ("roundrobin", "random", "sequential"):
            arr = np.zeros(1, dtype=np.int64)
            m = SimulatedMachine(4, schedule="cyclic", interleave=interleave, seed=2)
            m.parallel_for(8, cas_increment_kernel, arr, 0)
            assert arr[0] == 8

    def test_cas_failures_counted(self):
        arr = np.zeros(1, dtype=np.int64)
        m = SimulatedMachine(4, schedule="cyclic")
        ph = m.parallel_for(8, cas_increment_kernel, arr, 0)
        assert ph.cas_failures > 0
        assert ph.cas_attempts == 8 + ph.cas_failures


class TestAccounting:
    def test_work_counts_shared_ops(self):
        arr = np.zeros(6, dtype=np.int64)
        m = SimulatedMachine(2)
        ph = m.parallel_for(6, write_kernel, arr, phase="w")
        assert ph.label == "w"
        assert ph.work == 6  # one write per item
        assert ph.writes == 6
        assert ph.reads == 0

    def test_span_with_block_schedule(self):
        arr = np.zeros(8, dtype=np.int64)
        m = SimulatedMachine(2)
        ph = m.parallel_for(8, write_kernel, arr)
        assert ph.span == 4  # 8 items split evenly

    def test_phases_accumulate(self):
        arr = np.zeros(4, dtype=np.int64)
        m = SimulatedMachine(2)
        m.parallel_for(4, write_kernel, arr, phase="a")
        m.parallel_for(4, write_kernel, arr, phase="b")
        assert [p.label for p in m.stats.phases] == ["a", "b"]
        assert m.stats.total_work == 8

    def test_single_worker_sequentialises(self):
        arr = np.zeros(1, dtype=np.int64)
        m = SimulatedMachine(1)
        m.parallel_for(5, increment_kernel, arr, 0)
        assert arr[0] == 5  # no concurrency, no lost updates


class TestDeterminism:
    def test_roundrobin_is_deterministic(self):
        def run():
            arr = np.zeros(1, dtype=np.int64)
            m = SimulatedMachine(3, schedule="cyclic")
            m.parallel_for(6, increment_kernel, arr, 0)
            return int(arr[0])

        assert run() == run()

    def test_random_interleave_is_seeded(self):
        def run(seed):
            arr = np.zeros(1, dtype=np.int64)
            m = SimulatedMachine(3, schedule="cyclic", interleave="random", seed=seed)
            m.parallel_for(6, increment_kernel, arr, 0)
            return int(arr[0])

        assert run(5) == run(5)


class TestTraceIntegration:
    def test_trace_records_all_ops(self):
        arr = np.zeros(4, dtype=np.int64)
        trace = MemoryTrace()
        m = SimulatedMachine(2, trace=trace)
        m.parallel_for(4, write_kernel, arr, phase="w")
        ta = trace.finalize()
        assert ta.num_events == 4
        assert ta.phase_labels == ("w",)
        assert sorted(ta.address.tolist()) == [0, 1, 2, 3]


class TestDynamicSchedule:
    @pytest.mark.parametrize("interleave", ["roundrobin", "random", "sequential"])
    def test_all_items_processed(self, interleave):
        arr = np.zeros(30, dtype=np.int64)
        m = SimulatedMachine(
            4, schedule="dynamic", chunk_size=3, interleave=interleave, seed=2
        )
        m.parallel_for(30, write_kernel, arr)
        assert arr.tolist() == [i * 10 for i in range(30)]

    def test_balances_skewed_work(self):
        """Dynamic pulls rebalance when one worker's items are heavy."""

        def heavy_first_kernel(ctx, item, arr):
            # Item 0 does 50 shared ops; everything else does one.
            reps = 50 if item == 0 else 1
            for _ in range(reps):
                yield from ctx.write(arr, item, item)

        arr_dyn = np.zeros(40, dtype=np.int64)
        m_dyn = SimulatedMachine(4, schedule="dynamic", chunk_size=1)
        ph_dyn = m_dyn.parallel_for(40, heavy_first_kernel, arr_dyn)

        arr_blk = np.zeros(40, dtype=np.int64)
        m_blk = SimulatedMachine(4, schedule="block")
        ph_blk = m_blk.parallel_for(40, heavy_first_kernel, arr_blk)

        assert ph_dyn.work == ph_blk.work
        assert ph_dyn.span < ph_blk.span  # better balance

    def test_explicit_item_array(self):
        arr = np.zeros(10, dtype=np.int64)
        m = SimulatedMachine(2, schedule="dynamic", chunk_size=2)
        m.parallel_for(np.array([1, 4, 7]), write_kernel, arr)
        assert arr[1] == 10 and arr[4] == 40 and arr[7] == 70

    def test_zero_items(self):
        m = SimulatedMachine(2, schedule="dynamic")
        ph = m.parallel_for(0, write_kernel, np.zeros(1, dtype=np.int64))
        assert ph.work == 0

    def test_default_chunk_derived(self):
        arr = np.zeros(100, dtype=np.int64)
        m = SimulatedMachine(3, schedule="dynamic")  # no chunk_size
        m.parallel_for(100, write_kernel, arr)
        assert arr[99] == 990

    def test_cas_semantics_preserved(self):
        arr = np.zeros(1, dtype=np.int64)
        m = SimulatedMachine(4, schedule="dynamic", chunk_size=1)
        m.parallel_for(8, cas_increment_kernel, arr, 0)
        assert arr[0] == 8
