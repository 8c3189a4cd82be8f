"""Tests for the deterministic event loop under the simulated clock."""

import pytest

from repro.cluster import EventError, EventLoop
from repro.sim import SimClock


class TestScheduling:
    def test_fires_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.at(0.3, lambda: order.append("c"))
        loop.at(0.1, lambda: order.append("a"))
        loop.at(0.2, lambda: order.append("b"))
        loop.run_until(1.0)
        assert order == ["a", "b", "c"]

    def test_equal_times_fire_in_scheduling_order(self):
        loop = EventLoop()
        order = []
        for tag in range(10):
            loop.at(0.5, lambda tag=tag: order.append(tag))
        loop.run_until(1.0)
        assert order == list(range(10))

    def test_clock_tracks_event_times(self):
        loop = EventLoop()
        seen = []
        loop.at(0.25, lambda: seen.append(loop.clock.now))
        loop.run_until(1.0)
        assert seen == [0.25]
        assert loop.clock.now == 1.0  # advanced to the deadline

    def test_after_is_relative(self):
        clock = SimClock()
        clock.advance(5.0)
        loop = EventLoop(clock)
        timer = loop.after(0.5, lambda: None)
        assert timer.time == pytest.approx(5.5)

    def test_callback_can_schedule_more_events(self):
        loop = EventLoop()
        order = []

        def first():
            order.append("first")
            loop.after(0.0, lambda: order.append("second"))

        loop.at(0.1, first)
        loop.run_until(1.0)
        assert order == ["first", "second"]

    def test_past_event_rejected(self):
        loop = EventLoop()
        loop.clock.advance(1.0)
        with pytest.raises(EventError):
            loop.at(0.5, lambda: None)

    def test_nonfinite_times_rejected(self):
        loop = EventLoop()
        for bad in (float("nan"), float("inf")):
            with pytest.raises(EventError):
                loop.at(bad, lambda: None)
            with pytest.raises(EventError):
                loop.after(bad, lambda: None)
        with pytest.raises(EventError):
            loop.after(-0.1, lambda: None)
        with pytest.raises(EventError):
            loop.run_until(float("nan"))

    def test_cancelled_timer_never_fires(self):
        loop = EventLoop()
        fired = []
        timer = loop.at(0.1, lambda: fired.append(1))
        timer.cancel()
        loop.run_until(1.0)
        assert not fired
        assert loop.pending == 0


class TestRunUntil:
    def test_stop_predicate_short_circuits(self):
        loop = EventLoop()
        fired = []
        loop.at(0.1, lambda: fired.append("a"))
        loop.at(0.2, lambda: fired.append("b"))
        assert loop.run_until(1.0, stop=lambda: bool(fired))
        assert fired == ["a"]
        assert loop.clock.now == pytest.approx(0.1)
        assert loop.pending == 1  # "b" still queued

    def test_stop_checked_before_any_event(self):
        loop = EventLoop()
        fired = []
        loop.at(0.1, lambda: fired.append(1))
        assert loop.run_until(1.0, stop=lambda: True)
        assert not fired
        assert loop.clock.now == 0.0

    def test_timeout_advances_to_deadline(self):
        loop = EventLoop()
        assert not loop.run_until(0.75)
        assert loop.clock.now == 0.75

    def test_later_events_stay_queued(self):
        loop = EventLoop()
        fired = []
        loop.at(2.0, lambda: fired.append(1))
        assert not loop.run_until(1.0)
        assert not fired
        assert loop.pending == 1


class TestRunUntilIdle:
    def test_drains_cascading_events(self):
        loop = EventLoop()
        order = []

        def cascade(depth):
            order.append(depth)
            if depth < 5:
                loop.after(0.01, lambda: cascade(depth + 1))

        loop.at(0.0, lambda: cascade(0))
        assert loop.run_until_idle() == 6
        assert order == list(range(6))

    def test_self_rescheduling_loop_detected(self):
        loop = EventLoop()

        def forever():
            loop.after(1.0, forever)

        loop.at(0.0, forever)
        with pytest.raises(EventError):
            loop.run_until_idle(max_seconds=10.0)

    def test_empty_loop_is_a_noop(self):
        loop = EventLoop()
        assert loop.run_until_idle() == 0
        assert loop.clock.now == 0.0

    def test_cancelled_head_does_not_move_the_clock(self):
        loop = EventLoop()
        late = loop.at(5.0, lambda: None)
        loop.at(1.0, lambda: None)
        late.cancel()
        assert loop.run_until_idle() == 1
        assert loop.clock.now == 1.0

    def test_cancelled_timers_past_the_horizon_are_not_busy(self):
        loop = EventLoop()
        loop.at(100.0, lambda: None).cancel()
        assert loop.run_until_idle(max_seconds=10.0) == 0
        assert loop.clock.now == 0.0


class TestDeterminism:
    def test_same_schedule_same_order(self):
        def run():
            loop = EventLoop()
            order = []
            for tag in range(20):
                loop.at((tag * 7 % 5) * 0.1, lambda tag=tag: order.append(tag))
            loop.run_until_idle()
            return order

        assert run() == run()


class TestFIFOFairness:
    def test_thousands_of_same_deadline_timers_fire_in_fifo_order(self):
        # The serving plane schedules bursts of arrivals and timeouts
        # at identical instants; the (time, seq) tie-break must keep
        # them strictly FIFO or sessions would be served unfairly.
        loop = EventLoop()
        fired = []
        count = 5000
        for tag in range(count):
            loop.at(1.0, lambda tag=tag: fired.append(tag))
        loop.run_until_idle()
        assert fired == list(range(count))

    def test_fifo_holds_across_interleaved_batches(self):
        loop = EventLoop()
        fired = []
        # Two interleaved scheduling passes over the same two instants:
        # within each instant, scheduling order is firing order.
        for tag in range(0, 2000, 2):
            loop.at(1.0, lambda tag=tag: fired.append(tag))
            loop.at(2.0, lambda tag=-tag - 1: fired.append(tag))
        for tag in range(1, 2000, 2):
            loop.at(1.0, lambda tag=tag: fired.append(tag))
        loop.run_until_idle()
        at_one = [tag for tag in fired if tag >= 0]
        at_two = [tag for tag in fired if tag < 0]
        assert at_one == list(range(0, 2000, 2)) + list(range(1, 2000, 2))
        assert at_two == [-tag - 1 for tag in range(0, 2000, 2)]

    def test_cancellation_inside_a_tied_burst_preserves_order(self):
        loop = EventLoop()
        fired = []
        timers = [loop.at(1.0, lambda tag=tag: fired.append(tag))
                  for tag in range(1000)]
        for timer in timers[::3]:
            timer.cancel()
        loop.run_until_idle()
        expected = [tag for tag in range(1000) if tag % 3 != 0]
        assert fired == expected
