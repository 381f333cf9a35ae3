"""Simulated message-passing communicator (BSP supersteps).

Mirrors the slice of MPI the distributed substrate needs — point-to-point
array sends within a superstep and the collective shapes the
delta-exchange supersteps are built from (``alltoallv``, ``bcast_all``,
``allreduce_any``) — while accounting every transferred byte per rank
pair and per superstep.  Ranks are simulated as explicit state owned by
a driver; the communicator is the *only* channel through which data may
cross ranks, so message accounting is complete by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

#: modelled wire size of one scalar reduction value (a convergence flag
#: or change count travelling the allreduce tree), in bytes.
SCALAR_BYTES = 8


@dataclass
class CommStats:
    """Traffic accounting for a simulated communicator."""

    messages: int = 0
    bytes_sent: int = 0
    supersteps: int = 0
    #: bytes per (src, dst) rank pair.
    by_pair: dict = field(default_factory=dict)
    #: bytes delivered by each completed superstep barrier, in order —
    #: the per-superstep traffic profile the trace spans annotate.
    step_bytes: list = field(default_factory=list)
    # bytes recorded since the last barrier (flushed by ``flush_step``).
    _open_bytes: int = 0

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        self._open_bytes += nbytes
        key = (src, dst)
        self.by_pair[key] = self.by_pair.get(key, 0) + nbytes

    def flush_step(self) -> int:
        """Close the current superstep: append (and return) its bytes."""
        self.supersteps += 1
        out = self._open_bytes
        self.step_bytes.append(out)
        self._open_bytes = 0
        return out

    def sent_by_rank(self, num_ranks: int) -> list:
        """Total bytes each rank put on the wire (from ``by_pair``)."""
        out = [0] * num_ranks
        for (src, _dst), nbytes in self.by_pair.items():
            if 0 <= src < num_ranks:
                out[src] += nbytes
        return out


class SimulatedComm:
    """A ``num_ranks``-way communicator with superstep semantics.

    Within a superstep, ranks enqueue sends; :meth:`step` delivers all
    pending messages at once (BSP barrier), and :meth:`drain` empties a
    rank's inbox in arrival order.
    """

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self.stats = CommStats()
        self._outbox: list[tuple[int, int, np.ndarray]] = []
        self._inbox: list[list[tuple[int, np.ndarray]]] = [
            [] for _ in range(num_ranks)
        ]

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ConfigurationError(
                f"rank {rank} out of range for {self.num_ranks}-rank world"
            )

    def send(self, src: int, dst: int, array: np.ndarray) -> None:
        """Enqueue an array from ``src`` to ``dst`` (delivered at the next
        superstep barrier).  The array is copied — ranks share no memory."""
        self._check_rank(src)
        self._check_rank(dst)
        payload = np.ascontiguousarray(array).copy()
        self.stats.record(src, dst, payload.nbytes)
        self._outbox.append((src, dst, payload))

    def step(self) -> None:
        """Superstep barrier: deliver all enqueued messages."""
        self.stats.flush_step()
        for src, dst, payload in self._outbox:
            self._inbox[dst].append((src, payload))
        self._outbox = []

    def drain(self, rank: int) -> list[tuple[int, np.ndarray]]:
        """Pop every delivered message for ``rank`` as ``(src, payload)``."""
        self._check_rank(rank)
        out = self._inbox[rank]
        self._inbox[rank] = []
        return out

    # -- collectives (one barrier each) ---------------------------------- #

    def alltoallv(
        self, parts: dict[tuple[int, int], np.ndarray]
    ) -> dict[tuple[int, int], np.ndarray]:
        """Personalised all-to-all: each ``(src, dst) -> array`` entry is
        sent in one shared superstep; returns the delivered copies keyed
        the same way.  Pairs with empty arrays cost nothing and are
        dropped from the result."""
        for (src, dst), array in parts.items():
            if array.size:
                self.send(src, dst, array)
        self.step()
        out: dict[tuple[int, int], np.ndarray] = {}
        for rank in range(self.num_ranks):
            for src, payload in self.drain(rank):
                out[(src, rank)] = payload
        return out

    def bcast_all(self, arrays: dict[int, np.ndarray]) -> None:
        """Every ``root -> array`` entry is broadcast to all other ranks
        inside one shared superstep (the owner-publication half of a
        delta exchange).  Empty arrays cost nothing."""
        for root, array in arrays.items():
            self._check_rank(root)
            if not array.size:
                continue
            for dst in range(self.num_ranks):
                if dst != root:
                    self.send(root, dst, array)
        self.step()
        for rank in range(self.num_ranks):
            self.drain(rank)

    def allreduce_any(self, flags: list[bool]) -> bool:
        """Reduce one boolean per rank to a replicated OR.

        Modelled as a root gather plus a broadcast — ``2 (R - 1)``
        scalar-sized messages over two barriers; a single-rank world
        reduces locally for free.
        """
        if len(flags) != self.num_ranks:
            raise ConfigurationError(
                f"expected {self.num_ranks} flags, got {len(flags)}"
            )
        if self.num_ranks == 1:
            return bool(flags[0])
        token = np.empty(SCALAR_BYTES, dtype=np.uint8)
        for rank in range(1, self.num_ranks):
            self.send(rank, 0, token)
        self.step()
        self.drain(0)
        result = any(flags)
        for rank in range(1, self.num_ranks):
            self.send(0, rank, token)
        self.step()
        for rank in range(1, self.num_ranks):
            self.drain(rank)
        return result
