"""Simulated message-passing communicator (BSP supersteps).

Mirrors the slice of MPI the distributed substrate needs — point-to-point
sends within a superstep and the collective shapes the delta-exchange
supersteps are built from (``alltoallv``, ``bcast_all``,
``allreduce_any``) — as a meter: a send records its size per rank pair
and per superstep, and no payload is built or delivered.  Every rank
holds the same replica of π, so the receiver already has what a message
would carry; what the simulation prices is the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Within a superstep, ranks record sends; :meth:`step` closes it (BSP
    barrier).  Each collective is one or two supersteps.
    """

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ConfigurationError(f"num_ranks must be >= 1, got {num_ranks}")
        self.num_ranks = num_ranks
        self.stats = CommStats()

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_ranks:
            raise ConfigurationError(
                f"rank {rank} out of range for {self.num_ranks}-rank world"
            )

    def send(self, src: int, dst: int, nbytes: int) -> None:
        """Record one ``nbytes`` message from ``src`` to ``dst`` in the
        open superstep."""
        self._check_rank(src)
        self._check_rank(dst)
        self.stats.record(src, dst, nbytes)

    def step(self) -> None:
        """Superstep barrier: close the open superstep."""
        self.stats.flush_step()

    # -- collectives (one barrier each) ---------------------------------- #

    def alltoallv(self, parts: dict[tuple[int, int], int]) -> None:
        """Personalised all-to-all: each ``(src, dst) -> nbytes`` entry is
        one message of one shared superstep.  Zero-size entries cost
        nothing."""
        for (src, dst), nbytes in parts.items():
            if nbytes:
                self.send(src, dst, nbytes)
        self.step()

    def bcast_all(self, sizes: dict[int, int]) -> None:
        """Every ``root -> nbytes`` entry is broadcast to all other ranks
        inside one shared superstep (the owner-publication half of a
        delta exchange).  Zero-size entries cost nothing."""
        for root, nbytes in sizes.items():
            self._check_rank(root)
            if not nbytes:
                continue
            for dst in range(self.num_ranks):
                if dst != root:
                    self.send(root, dst, nbytes)
        self.step()

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
        for rank in range(1, self.num_ranks):
            self.send(rank, 0, SCALAR_BYTES)
        self.step()
        for rank in range(1, self.num_ranks):
            self.send(0, rank, SCALAR_BYTES)
        self.step()
        return any(flags)
