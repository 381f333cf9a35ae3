"""Live run telemetry: per-round heartbeat events with an ETA.

Traces answer questions *after* a run; the heartbeat answers "is it
making progress?" *during* one.  Pipelines call
``backend.beat(phase, changed=..., frontier=...)`` once per round; the
:class:`HeartbeatMonitor` timestamps the round, estimates time to
completion from the round trend, and hands a :class:`HeartbeatEvent`
to a pluggable sink (any callable, or a list to append to).

Guarantees the serving layer can build on: ``round`` increases
monotonically across a monitor's lifetime (even when an algorithm's
phases each number their own rounds), and ``eta_seconds`` is finite
from the third round onward — the estimator falls back to
"as many rounds again" when the convergence signal is not decaying.

When no heartbeat is attached the engine never constructs any of this;
the hot path pays one ``None`` check per round.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque

__all__ = ["HeartbeatEvent", "HeartbeatMonitor", "format_event"]

#: rounds of history the ETA trend looks back over.
_TREND_WINDOW = 8


@dataclass
class HeartbeatEvent:
    """One progress observation.

    ``kind`` is ``"round"`` for pipeline rounds.  ``round`` is the
    monitor's monotone round count; ``eta_seconds`` is ``inf`` until the
    trend has two rounds to extrapolate from.
    """

    kind: str
    round: int
    phase: str
    elapsed_seconds: float
    round_seconds: float
    eta_seconds: float
    frontier: int | None = None
    changed: int | None = None
    extra: dict[str, Any] = field(default_factory=dict)


class HeartbeatMonitor:
    """Turns per-round callbacks into timestamped, ETA-carrying events.

    ``sink`` is any callable taking a :class:`HeartbeatEvent`; a list
    (anything with ``append``) works directly.  The monitor is owned by
    one engine run on one thread — it keeps no locks.
    """

    def __init__(
        self,
        sink: Callable[[HeartbeatEvent], Any] | list[HeartbeatEvent],
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if callable(sink):
            self._sink: Callable[[HeartbeatEvent], Any] = sink
        else:
            self._sink = sink.append
        self._clock = clock
        self._t0 = clock()
        self._last = self._t0
        self._round = 0
        self._durations: Deque[float] = deque(maxlen=_TREND_WINDOW)
        self._prev_signal: float | None = None

    @property
    def rounds(self) -> int:
        """Rounds observed so far."""
        return self._round

    def beat(
        self,
        phase: str = "",
        *,
        frontier: int | None = None,
        changed: int | None = None,
        **extra: Any,
    ) -> HeartbeatEvent:
        """Record the end of one pipeline round and emit its event.

        ``changed`` (labels that moved) is the preferred convergence
        signal for the ETA trend; ``frontier`` (vertices active next
        round) is used when ``changed`` is not known.
        """
        now = self._clock()
        self._round += 1
        round_s = now - self._last
        self._last = now
        self._durations.append(round_s)
        signal = changed if changed is not None else frontier
        eta = self._eta(None if signal is None else float(signal))
        event = HeartbeatEvent(
            kind="round",
            round=self._round,
            phase=str(phase),
            elapsed_seconds=now - self._t0,
            round_seconds=round_s,
            eta_seconds=eta,
            frontier=frontier,
            changed=changed,
            extra=dict(extra),
        )
        self._sink(event)
        return event

    def _eta(self, signal: float | None) -> float:
        """Seconds to completion extrapolated from the round trend.

        With a decaying convergence signal the estimate is geometric:
        rounds remaining until the signal falls below one, at the mean
        recent round duration.  Without one (or when the signal is not
        shrinking) it assumes as many rounds again as already run —
        crude, but finite, which is what a progress bar needs.
        """
        prev = self._prev_signal
        self._prev_signal = signal
        if self._round < 2:
            return math.inf
        avg = sum(self._durations) / len(self._durations)
        if (
            signal is not None
            and prev is not None
            and 0.0 < signal < prev
        ):
            decay = signal / prev
            remaining = math.log(max(signal, 2.0)) / -math.log(decay)
            return avg * min(remaining, 1e6)
        return avg * self._round


def format_event(event: HeartbeatEvent) -> str:
    """One human line per event, for ``repro obs watch``."""
    signal = ""
    if event.changed is not None:
        signal = f"  changed={event.changed}"
    elif event.frontier is not None:
        signal = f"  frontier={event.frontier}"
    eta = (
        "eta    --"
        if math.isinf(event.eta_seconds)
        else f"eta {event.eta_seconds:5.2f}s"
    )
    return (
        f"round {event.round:3d}  {event.phase or '-':<8}"
        f"  {event.round_seconds * 1000:8.2f} ms  {eta}{signal}"
    )
