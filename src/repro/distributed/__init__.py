"""Distributed-memory substrate (the paper's first future-work direction).

The conclusions propose "generaliz[ing] the algorithm to distributed
memory environments".  This subpackage holds the message-passing layer
that generalisation is built on; the algorithmic half lives in the
engine as :class:`repro.engine.backends.DistributedBackend`, which runs
every composed sampling × finish plan as BSP delta-exchange supersteps
(see ``docs/distributed.md``):

- :mod:`~repro.distributed.comm` — a BSP-style simulated communicator:
  ranks hold private state, exchange messages in supersteps, and every
  byte moved is accounted per rank pair and per superstep (the
  distributed analogue of the simulated machine's operation counters),
  with the collective shapes the backend's exchanges use
  (``alltoallv``, ``bcast_all``, ``allreduce_any``);
- :mod:`~repro.distributed.partition` — the 1-D ``block_bounds`` /
  ``hash_owners`` ownership maps behind the backend's sharding.
"""

from repro.distributed.comm import CommStats, SimulatedComm
from repro.distributed.partition import block_bounds, hash_owners

__all__ = [
    "CommStats",
    "SimulatedComm",
    "block_bounds",
    "hash_owners",
]
