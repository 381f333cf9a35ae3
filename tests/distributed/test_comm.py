"""Unit tests for the simulated communicator."""

import numpy as np
import pytest

from repro.distributed.comm import SimulatedComm
from repro.errors import ConfigurationError


class TestPointToPoint:
    def test_send_then_step_then_recv(self):
        comm = SimulatedComm(3)
        comm.send(0, 2, np.arange(4))
        comm.send(1, 2, np.array([20]))
        assert comm.drain(2) == []  # not delivered before the barrier
        comm.step()
        (src0, msg0), (src1, msg1) = comm.drain(2)
        assert (src0, msg0.tolist()) == (0, [0, 1, 2, 3])
        assert (src1, msg1.tolist()) == (1, [20])
        assert comm.drain(2) == []  # drained exactly once

    def test_messages_are_copies(self):
        comm = SimulatedComm(2)
        data = np.arange(3)
        comm.send(0, 1, data)
        data[0] = 99
        comm.step()
        [(_, msg)] = comm.drain(1)
        assert msg[0] == 0

    def test_rank_bounds_checked(self):
        comm = SimulatedComm(2)
        with pytest.raises(ConfigurationError):
            comm.send(0, 5, np.array([1]))
        with pytest.raises(ConfigurationError):
            comm.drain(-1)

    def test_rejects_empty_world(self):
        with pytest.raises(ConfigurationError):
            SimulatedComm(0)


class TestAccounting:
    def test_bytes_and_messages(self):
        comm = SimulatedComm(2)
        comm.send(0, 1, np.zeros(10, dtype=np.int64))
        comm.step()
        assert comm.stats.messages == 1
        assert comm.stats.bytes_sent == 80
        assert comm.stats.by_pair[(0, 1)] == 80
        assert comm.stats.supersteps == 1
