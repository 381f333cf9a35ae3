"""Unit tests for memory tracing."""

import numpy as np

from repro.parallel.memtrace import (
    OP_CAS_FAIL,
    OP_CAS_SUCCESS,
    OP_READ,
    OP_WRITE,
    MemoryTrace,
)


class TestMemoryTrace:
    def test_records_in_order(self):
        t = MemoryTrace()
        t.begin_phase("a")
        t.record(3, 0, OP_READ)
        t.record(5, 1, OP_WRITE)
        ta = t.finalize()
        assert ta.address.tolist() == [3, 5]
        assert ta.worker.tolist() == [0, 1]
        assert ta.op.tolist() == [OP_READ, OP_WRITE]

    def test_phase_attribution(self):
        t = MemoryTrace()
        t.begin_phase("a")
        t.record(0, 0, OP_READ)
        t.begin_phase("b")
        t.record(1, 0, OP_WRITE)
        t.record(2, 0, OP_CAS_SUCCESS)
        ta = t.finalize()
        assert ta.phase_labels == ("a", "b")
        assert ta.phase.tolist() == [0, 1, 1]

    def test_empty_trace(self):
        ta = MemoryTrace().finalize()
        assert ta.num_events == 0
        assert ta.phase_labels == ()

    def test_len(self):
        t = MemoryTrace()
        t.begin_phase("a")
        for i in range(10):
            t.record(i, 0, OP_READ)
        assert len(t) == 10

    def test_chunk_overflow(self):
        """Recording past one chunk allocates a second transparently."""
        t = MemoryTrace()
        t.begin_phase("a")
        n = (1 << 16) + 100
        for i in range(n):
            t.record(i % 7, 0, OP_CAS_FAIL)
        ta = t.finalize()
        assert ta.num_events == n
        assert ta.address[-1] == (n - 1) % 7
