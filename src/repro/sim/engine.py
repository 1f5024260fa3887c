"""A minimal discrete-event simulation kernel on scheduled calls.

Design
------
The kernel follows the classic event-list architecture:

* an :class:`Environment` owns the simulated clock and a priority queue of
  scheduled calls;
* a :class:`ScheduledCall` (``env.call_later(delay, fn, *args)``) is a
  plain callback on that queue that can be cancelled;
* a :class:`RestartableTimer` runs a restartable timer loop on
  scheduled calls.

Every piece of simulated work is a scheduled call, and a loop is a call
that schedules its next step.  The loops that repeat a wait and an
action (protocol timers, false-signal sources, workloads) are
restartable timers; the others (session lifecycles, fault schedules,
samplers) are chains of calls.  Determinism is guaranteed: calls
scheduled for the same time fire in scheduling order (FIFO tie-break).
An exception raised by a call leaves :meth:`Environment.step`, and so
the run, with the clock at the call's time.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

__all__ = [
    "Environment",
    "RestartableTimer",
    "ScheduledCall",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class ScheduledCall:
    """A callback on the event queue; :meth:`cancel` skips it.

    Made by :meth:`Environment.call_later`.  It takes its place in the
    queue from one sequence counter and fires through
    :meth:`Environment.step`, so calls at one instant run in scheduling
    order.  A cancelled call stays queued and is skipped when popped.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, fn: Callable[..., Any], args: tuple[Any, ...]) -> None:
        self._fn: Callable[..., Any] | None = fn
        self._args = args

    def cancel(self) -> None:
        """Skip the call when its time comes (a no-op once it ran)."""
        self._fn = None

    def _fire(self) -> None:
        if self._fn is not None:
            self._fn(*self._args)


class RestartableTimer:
    """A restartable timer loop on scheduled calls.

    Each run is this loop; :meth:`restart` ends the current run and
    starts a new one, and :meth:`cancel` ends the current run::

        while condition():
            wait interval()
            if not condition():
                return
            fire()

    * ``restart()`` schedules a zero-delay arm call, and the arm draws
      the interval (the arm rule): the draw happens after everything
      already queued for that instant, not at the restart.  A timer
      cancelled or restarted before its arm runs draws nothing, so two
      restarts at one instant draw once.
    * A cancelled call stays queued and is skipped when popped.
    * At expiry the condition, ``fire()``, the condition again and the
      next draw run in one call.  A ``fire()`` that cancels or restarts
      its own timer ends that run.
    """

    __slots__ = ("env", "_interval", "_condition", "_fire", "_pending")

    def __init__(
        self,
        env: "Environment",
        interval: Callable[[], float],
        condition: Callable[[], bool],
        fire: Callable[[], None],
    ) -> None:
        self.env = env
        self._interval = interval
        self._condition = condition
        self._fire = fire
        self._pending: ScheduledCall | None = None

    def restart(self) -> None:
        """Cancel the running loop, if any, and start a new one."""
        if self._pending is not None:
            self._pending.cancel()
        self._pending = self.env.call_later(0.0, self._arm)

    def cancel(self) -> None:
        """Stop the loop; its pending call is skipped when popped."""
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _arm(self) -> None:
        if self._condition():
            self._pending = self.env.call_later(self._interval(), self._expire)
        else:
            self._pending = None

    def _expire(self) -> None:
        expired = self._pending
        if not self._condition():
            self._pending = None
            return
        self._fire()
        if self._pending is expired:
            self._arm()


class Environment:
    """The simulation environment: the clock and its queue of calls."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, ScheduledCall]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Run ``fn(*args)`` ``delay`` time units from now; cancellable."""
        if delay < 0:
            raise SimulationError(f"cannot schedule a call in the past (delay={delay!r})")
        call = ScheduledCall(fn, args)
        heapq.heappush(self._queue, (self._now + delay, self._sequence, call))
        self._sequence += 1
        return call

    def step(self) -> None:
        """Fire the single next scheduled call."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, call = heapq.heappop(self._queue)
        self._now = when
        call._fire()

    def run(self, until: float | None = None) -> None:
        """Run the simulation.

        With a time ``until``, fire every call due at or before it and
        leave the clock there; with ``None``, run until no calls remain.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("cannot run backwards in time")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
