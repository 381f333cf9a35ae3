"""Unit tests for the simulated communicator (a meter of the wire)."""

import pytest

from repro.distributed.comm import SCALAR_BYTES, SimulatedComm
from repro.errors import ConfigurationError


def _totals(comm):
    stats = comm.stats
    return stats.messages, stats.bytes_sent, stats.supersteps


class TestPointToPoint:
    def test_rank_bounds_checked(self):
        comm = SimulatedComm(2)
        with pytest.raises(ConfigurationError):
            comm.send(0, 5, 8)
        with pytest.raises(ConfigurationError):
            comm.send(-1, 0, 8)
        with pytest.raises(ConfigurationError):
            comm.bcast_all({2: 8})

    def test_rejects_empty_world(self):
        with pytest.raises(ConfigurationError):
            SimulatedComm(0)


class TestAccounting:
    def test_bytes_and_messages(self):
        comm = SimulatedComm(2)
        comm.send(0, 1, 80)
        comm.step()
        assert comm.stats.messages == 1
        assert comm.stats.bytes_sent == 80
        assert comm.stats.by_pair[(0, 1)] == 80
        assert comm.stats.supersteps == 1


class TestCollectives:
    def test_alltoallv_zero_size_entry_is_free(self):
        comm = SimulatedComm(3)
        comm.alltoallv({(0, 1): 12, (1, 0): 0, (2, 0): 4})
        assert _totals(comm) == (2, 16, 1)
        assert comm.stats.by_pair == {(0, 1): 12, (2, 0): 4}
        assert comm.stats.step_bytes == [16]

    def test_bcast_all_sends_to_every_peer_of_each_nonempty_root(self):
        comm = SimulatedComm(4)
        comm.bcast_all({0: 10, 2: 0, 3: 6})
        # R - 1 = 3 messages per non-empty root, one barrier.
        assert _totals(comm) == (6, 48, 1)
        assert comm.stats.by_pair == {
            (0, 1): 10, (0, 2): 10, (0, 3): 10,
            (3, 0): 6, (3, 1): 6, (3, 2): 6,
        }
        assert comm.stats.step_bytes == [48]

    @pytest.mark.parametrize("flags", [[False, True, False], [False] * 3])
    def test_allreduce_any_gathers_then_broadcasts(self, flags):
        comm = SimulatedComm(3)
        assert comm.allreduce_any(flags) is any(flags)
        # 2 (R - 1) scalar messages: a gather to rank 0, then its broadcast.
        assert _totals(comm) == (4, 4 * SCALAR_BYTES, 2)
        assert comm.stats.by_pair == {
            (1, 0): SCALAR_BYTES, (2, 0): SCALAR_BYTES,
            (0, 1): SCALAR_BYTES, (0, 2): SCALAR_BYTES,
        }
        assert comm.stats.step_bytes == [2 * SCALAR_BYTES] * 2

    @pytest.mark.parametrize("flag", [False, True])
    def test_allreduce_any_on_one_rank_is_free(self, flag):
        comm = SimulatedComm(1)
        assert comm.allreduce_any([flag]) is flag
        assert _totals(comm) == (0, 0, 0)

    def test_allreduce_any_needs_one_flag_per_rank(self):
        with pytest.raises(ConfigurationError):
            SimulatedComm(3).allreduce_any([True])
