"""A minimal but complete generator-based discrete-event simulation kernel.

Design
------
The kernel follows the classic event-list architecture:

* an :class:`Environment` owns the simulated clock and a priority queue of
  scheduled events;
* an :class:`Event` is a one-shot occurrence that callbacks (usually
  suspended processes) can wait on;
* a :class:`Process` wraps a Python generator.  The generator yields
  events; when a yielded event fires, the process is resumed with the
  event's value (or the event's exception is thrown into it);
* a :class:`ScheduledCall` (``env.call_later(delay, fn, *args)``) is a
  plain callback on the same queue that can be cancelled;
* a :class:`RestartableTimer` runs a restartable timer loop on
  scheduled calls.

This is deliberately the same process model as simpy's, so protocol code
reads like ordinary simpy code.  Only the features the protocol
implementations need are provided: timeouts, process join, immediate
(zero-delay) events, cancellable scheduled calls and restartable
timers.  The protocol timers that messages restart (state timeouts,
refresh and retransmission loops) are restartable timers; loops that
nothing restarts (workloads, fault schedules, samplers) are
processes.  Determinism is guaranteed: events and calls scheduled for
the same time fire in scheduling order (FIFO tie-break).
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from typing import Any

__all__ = [
    "Environment",
    "Event",
    "Process",
    "RestartableTimer",
    "ScheduledCall",
    "SimulationError",
    "Timeout",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (not for model errors)."""


class Event:
    """A one-shot occurrence that processes can wait for.

    An event has three phases: *pending* (created, not yet fired),
    *triggered* (scheduled to fire, value/exception decided), and
    *processed* (callbacks have run).  Processes wait on an event by
    yielding it; the kernel registers the process as a callback.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_triggered", "_processed")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether the event has fired and its callbacks have run."""
        return self._processed

    @property
    def value(self) -> Any:
        """The value the event fired with (valid once triggered)."""
        if not self._triggered:
            raise SimulationError("event value accessed before trigger")
        return self._value

    @property
    def ok(self) -> bool:
        """True when the event fired successfully (no exception)."""
        return self._triggered and self._exception is None

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule the event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule the event to fire by raising ``exception`` in waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._triggered = True
        self._exception = exception
        self.env._schedule(self, delay)
        return self

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._triggered = True
        self._value = value
        env._schedule(self, delay)


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator's ``return`` value becomes the event value, so parent
    processes can ``result = yield child_process``.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> None:
        if not isinstance(generator, Generator):
            raise SimulationError("Process requires a generator (did you call the function?)")
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            while True:
                if event._exception is not None:
                    target = self.generator.throw(event._exception)
                else:
                    target = self.generator.send(event._value)
                # The generator yielded a new event to wait on.
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"process {self.name!r} yielded {target!r}, expected an Event"
                    )
                if target.callbacks is None:
                    # Already processed: feed its outcome straight back in.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                return
        except StopIteration as stop:
            self.succeed(stop.value)
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if isinstance(exc, SimulationError):
                raise
            self.fail(exc)


class ScheduledCall:
    """A callback on the event queue; :meth:`cancel` skips it.

    Made by :meth:`Environment.call_later`.  It takes its place in the
    queue from the same sequence counter as events and fires through
    :meth:`Environment.step`, so calls, timeouts and process bootstraps
    at one instant run in scheduling order.  A cancelled call stays
    queued and is skipped when popped.
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
    """The simulation environment: clock, event queue, process factory."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event | ScheduledCall]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    def _schedule(self, event: Event | ScheduledCall, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule event in the past (delay={delay!r})")
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))
        self._sequence += 1

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def call_later(
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> ScheduledCall:
        """Run ``fn(*args)`` ``delay`` time units from now; cancellable."""
        call = ScheduledCall(fn, args)
        self._schedule(call, delay)
        return call

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name=name)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next event or scheduled call."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        event._fire()

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock passes it), an event
        (run until it fires; its value is returned), or ``None`` (run
        until no events remain).
        """
        if isinstance(until, Event):
            stop_event = until
            while not stop_event._processed:
                if not self._queue:
                    raise SimulationError("event queue empty before 'until' event fired")
                self.step()
            if stop_event._exception is not None:
                raise stop_event._exception
            return stop_event._value
        if until is None:
            while self._queue:
                self.step()
            return None
        horizon = float(until)
        if horizon < self._now:
            raise SimulationError("cannot run backwards in time")
        while self._queue and self._queue[0][0] <= horizon:
            self.step()
        self._now = horizon
        return None
