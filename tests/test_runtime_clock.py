"""Tests for the runtime clocks: WallClock, and the Simulator in the
fake-clock role the deterministic serving tests give it (stepped by
hand, never by wall time)."""

import pytest

from repro.core.clock import ClockProtocol, SchedulerProtocol
from repro.errors import SimulationError
from repro.runtime.clock import WallClock
from repro.sim.engine import Simulator


class TestProtocolConformance:
    def test_fake_clock_is_a_scheduler(self):
        clock = Simulator()
        assert isinstance(clock, ClockProtocol)
        assert isinstance(clock, SchedulerProtocol)

    def test_wall_clock_is_a_clock(self):
        assert isinstance(WallClock(), ClockProtocol)

    def test_wall_clock_monotone(self):
        clock = WallClock()
        a = clock.now
        b = clock.now
        assert 0 <= a <= b


class TestFakeClockScheduling:
    def test_starts_at_zero_and_idle(self):
        clock = Simulator()
        assert clock.now == 0.0  # reprolint: disable=R004 -- virtual time is assigned, never accumulated; exactness is the contract
        assert clock.pending_events == 0
        assert not clock.step()

    def test_fires_in_time_order(self):
        clock = Simulator()
        fired = []
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(3.0, lambda: fired.append("c"))
        clock.run(until_s=10.0)
        assert clock.processed_events == 3
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_submission_order(self):
        clock = Simulator()
        fired = []
        for name in "abcd":
            clock.schedule(1.0, lambda n=name: fired.append(n))
        clock.run()
        assert fired == ["a", "b", "c", "d"]

    def test_clock_reads_fire_time_inside_callback(self):
        clock = Simulator()
        seen = []
        clock.schedule(1.5, lambda: seen.append(clock.now))
        clock.schedule(4.0, lambda: seen.append(clock.now))
        clock.run(until_s=5.0)
        assert seen == [1.5, 4.0]
        assert clock.now == 5.0  # reprolint: disable=R004 -- run(until_s) sets now to the horizon exactly

    def test_boundary_events_fire(self):
        # Events scheduled exactly at the horizon fire.
        clock = Simulator()
        fired = []
        clock.schedule(2.0, lambda: fired.append("edge"))
        clock.run(until_s=2.0)
        assert fired == ["edge"]

    def test_callbacks_can_schedule_callbacks(self):
        clock = Simulator()
        fired = []

        def first():
            fired.append(("first", clock.now))
            clock.schedule(1.0, lambda: fired.append(("second", clock.now)))

        clock.schedule(1.0, first)
        # The chained callback is due inside the same run window.
        clock.run(until_s=3.0)
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_advance_by_and_counts(self):
        clock = Simulator()
        clock.run(until_s=5.0)
        clock.schedule(1.0, lambda: None)
        clock.schedule(4.0, lambda: None)
        clock.run(until_s=clock.now + 2.0)
        assert clock.processed_events == 1
        assert clock.now == 7.0  # reprolint: disable=R004 -- run(until_s) lands on start + delta exactly
        assert clock.pending_events == 1
        clock.step()
        assert clock.now == pytest.approx(9.0)

    def test_schedule_at_absolute(self):
        clock = Simulator()
        fired = []
        clock.schedule_at(3.0, lambda: fired.append(clock.now))
        clock.run()
        assert fired == [3.0]
        assert clock.now == 3.0  # reprolint: disable=R004 -- a full run leaves now at the last fire time exactly


class TestFakeClockErrors:
    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        clock = Simulator()
        clock.run(until_s=10.0)
        with pytest.raises(SimulationError):
            clock.schedule_at(9.0, lambda: None)

    def test_advance_backwards_rejected(self):
        clock = Simulator()
        clock.run(until_s=2.0)
        with pytest.raises(SimulationError):
            clock.run(until_s=1.0)

    def test_negative_advance_by_rejected(self):
        clock = Simulator()
        with pytest.raises(SimulationError):
            clock.run(until_s=clock.now - 1.0)

    def test_drain_bounds_runaway_reschedule(self):
        # A callback that reschedules itself forever is bounded by the
        # horizon: the run stops there with the next firing queued.
        clock = Simulator()

        def reschedule():
            clock.schedule(1.0, reschedule)

        clock.schedule(1.0, reschedule)
        clock.run(until_s=100.0)
        assert clock.processed_events == 100
        assert clock.pending_events == 1

    def test_drain_returns_total_fired(self):
        clock = Simulator()
        for i in range(5):
            clock.schedule(float(i), lambda: None)
        clock.run()
        assert clock.processed_events == 5
        assert clock.pending_events == 0
