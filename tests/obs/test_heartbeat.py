"""Tests for live run telemetry (repro.obs.heartbeat)."""

import math

from repro.obs.heartbeat import HeartbeatEvent, HeartbeatMonitor, format_event


class FakeClock:
    """Deterministic clock: each tick advances by a scripted step."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestMonitorRounds:
    def test_rounds_increase_monotonically(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        for _ in range(5):
            monitor.beat("H")
        assert [e.round for e in events] == [1, 2, 3, 4, 5]
        assert monitor.rounds == 5

    def test_rounds_survive_pipeline_composition(self):
        # Each phase of an algorithm numbers its own rounds; the monitor's
        # count keeps climbing regardless of the phases it is fed.
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        for phase in ("L1", "L2", "H1", "H2", "H3"):
            monitor.beat(phase)
        assert [e.round for e in events] == [1, 2, 3, 4, 5]

    def test_event_payload(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock(step=0.5))
        event = monitor.beat("P1", frontier=100, source="test")
        assert event is events[0]
        assert event.kind == "round"
        assert event.phase == "P1"
        assert event.frontier == 100
        assert event.changed is None
        assert event.extra == {"source": "test"}
        assert event.round_seconds > 0

    def test_callable_sink(self):
        seen = []
        monitor = HeartbeatMonitor(seen.append, clock=FakeClock())
        monitor.beat("H")
        assert len(seen) == 1 and isinstance(seen[0], HeartbeatEvent)


class TestEta:
    def test_infinite_before_round_two(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("H", changed=100)
        assert math.isinf(events[0].eta_seconds)

    def test_finite_from_round_two_with_decay(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        for changed in (1000, 500, 250, 125):
            monitor.beat("H", changed=changed)
        for event in events[1:]:
            assert math.isfinite(event.eta_seconds)
            assert event.eta_seconds > 0

    def test_finite_from_round_two_without_signal(self):
        # No frontier/changed at all: the fallback still yields a finite
        # estimate, which is the guarantee a progress bar needs.
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("H")
        monitor.beat("H")
        monitor.beat("H")
        assert all(math.isfinite(e.eta_seconds) for e in events[1:])

    def test_finite_when_signal_grows(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("T", frontier=10)
        monitor.beat("T", frontier=100)  # BFS frontier still expanding
        assert math.isfinite(events[1].eta_seconds)

    def test_geometric_decay_shrinks_eta(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        for changed in (4096, 2048, 1024, 512, 256, 128):
            monitor.beat("H", changed=changed)
        # Same decay rate and round time per round: the remaining-rounds
        # estimate falls as the signal approaches 1.
        assert events[-1].eta_seconds < events[1].eta_seconds

    def test_changed_preferred_over_frontier(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("H", frontier=10, changed=1000)
        monitor.beat("H", frontier=10000, changed=500)
        # changed decayed (1000 -> 500) so the geometric path is taken
        # even though frontier grew; eta is finite either way, but the
        # decay estimate differs from the fallback avg*rounds = 2.0.
        assert events[1].eta_seconds != 2.0


class TestFormatEvent:
    def test_round_line(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("P3", frontier=128)
        line = format_event(events[0])
        assert "round   1" in line
        assert "P3" in line
        assert "frontier=128" in line
        assert "eta    --" in line  # round 1: no trend yet

    def test_round_line_with_finite_eta(self):
        events = []
        monitor = HeartbeatMonitor(events, clock=FakeClock())
        monitor.beat("H", changed=100)
        monitor.beat("H", changed=50)
        assert "eta " in format_event(events[1])
        assert "--" not in format_event(events[1])

