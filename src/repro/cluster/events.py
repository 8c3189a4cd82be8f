"""Deterministic event-driven scheduler over the simulated clock.

The synchronous request/response world of :mod:`repro.sim` cannot
express the phenomena the SDDS cluster runtime exists to study -- messages in
flight that are dropped, duplicated, or overtaken; timeouts racing
replies; crashes scheduled for the future.  :class:`EventLoop` adds the
missing piece: a priority queue of timed callbacks over
:class:`~repro.sim.clock.SimClock`, with a monotonically increasing
sequence number breaking time ties so two runs of the same seeded
scenario execute events in byte-identical order.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

from ..errors import ReproError
from ..sim.clock import SimClock


class EventError(ReproError):
    """Invalid event time or a mis-scheduled callback."""


class Timer:
    """Handle to one scheduled callback; ``cancel()`` prevents firing."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the timer dead; the loop discards it unfired."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Timer(t={self.time:.6f}s, seq={self.seq}, {state})"


class EventLoop:
    """A deterministic run-to-completion scheduler.

    Callbacks run with the clock advanced (monotonically, via
    :meth:`SimClock.sleep_until`) to their scheduled time; a callback
    may schedule further events, including at the current instant.
    Equal-time events fire in scheduling order -- the stable tie-break
    that makes whole-cluster runs reproducible.
    """

    def __init__(self, clock: SimClock | None = None):
        self.clock = clock if clock is not None else SimClock()
        #: ``(time, seq, timer)``; the unique ``seq`` settles every tie,
        #: so the heap never compares timers.
        self._heap: list[tuple[float, int, Timer]] = []
        self._seq = 0
        self.fired = 0

    @property
    def pending(self) -> int:
        """Number of live (uncancelled) timers in the queue."""
        return sum(not timer.cancelled for _, _, timer in self._heap)

    def at(self, time: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` for absolute simulated ``time``."""
        if not math.isfinite(time):
            raise EventError(f"cannot schedule an event at t={time}")
        if time < self.clock.now:
            raise EventError(
                f"cannot schedule an event at t={time:.6f}s, "
                f"already at t={self.clock.now:.6f}s"
            )
        timer = Timer(time, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._heap, (time, timer.seq, timer))
        return timer

    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` for ``delay`` seconds from now."""
        if not math.isfinite(delay) or delay < 0:
            raise EventError(f"cannot schedule an event {delay}s from now")
        return self.at(self.clock.now + delay, callback)

    def run_until(self, deadline: float,
                  stop: Callable[[], bool] | None = None) -> bool:
        """Fire events due by ``deadline``; returns True if ``stop`` hit.

        Events with ``time <= deadline`` fire in (time, seq) order, the
        clock tracking each event's timestamp.  After every event the
        optional ``stop`` predicate is consulted -- the waiting-for-a-
        reply primitive the retry machinery is built on.  When the
        queue drains (or only later events remain) without ``stop``
        becoming true, the clock advances to ``deadline`` and the call
        returns False: a timeout.
        """
        if not math.isfinite(deadline):
            raise EventError(f"cannot run until t={deadline}")
        if stop is not None and stop():
            return True
        while self._heap and self._heap[0][0] <= deadline:
            timer = heapq.heappop(self._heap)[2]
            if timer.cancelled:
                continue
            self.clock.sleep_until(timer.time)
            self.fired += 1
            timer.callback()
            if stop is not None and stop():
                return True
        self.clock.sleep_until(deadline)
        return False

    def run_until_idle(self, max_seconds: float = 3600.0) -> int:
        """Fire every queued event (and their consequences); returns count.

        ``max_seconds`` bounds how far past *now* the loop will follow
        self-rescheduling event chains -- a safety net, not a timeout.
        """
        horizon = self.clock.now + max_seconds
        fired_before = self.fired
        while self._heap:
            head = self._heap[0][2]
            if head.cancelled:
                heapq.heappop(self._heap)  # it must not move the clock
            elif head.time > horizon:
                raise EventError(
                    f"event chain still busy {max_seconds}s out; "
                    "likely a self-rescheduling loop"
                )
            else:
                self.run_until(head.time)
        return self.fired - fired_before

    def __repr__(self) -> str:
        return (f"EventLoop(t={self.clock.now:.6f}s, "
                f"pending={self.pending}, fired={self.fired})")
