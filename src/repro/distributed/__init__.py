"""Distributed-memory substrate (the paper's first future-work direction).

The conclusions propose "generaliz[ing] the algorithm to distributed
memory environments".  This subpackage holds the message-passing layer
that generalisation is built on; the algorithmic half lives in the
engine as :class:`repro.engine.backends.DistributedBackend`, which runs
every algorithm in the name table as BSP delta-exchange supersteps
(see ``docs/distributed.md``), sharding by the 1-D maps of
:mod:`repro.engine.partition`.

:mod:`~repro.distributed.comm` is a BSP-style simulated communicator:
ranks hold private state, exchange messages in supersteps, and every
byte moved is accounted per rank pair and per superstep (the
distributed analogue of the simulated machine's operation counters),
with the collective shapes the backend's exchanges use (``alltoallv``,
``bcast_all``, ``allreduce_any``).
"""

from repro.distributed.comm import CommStats, SimulatedComm

__all__ = ["CommStats", "SimulatedComm"]
