"""Time-weighted measurement utilities.

The paper's central metric — the inconsistency ratio — is a *fraction of
time*, so measurement must be time-weighted, not sample-weighted.
:class:`TimeWeightedValue` integrates a piecewise-constant signal;
:class:`StateFractionMonitor` specializes it to "fraction of time a
boolean predicate held"; :class:`TimeSeriesMonitor` samples an
instantaneous indicator on a fixed virtual-time grid (the sim side of
the transient recovery curves).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.sim.engine import Environment

__all__ = ["StateFractionMonitor", "TimeSeriesMonitor", "TimeWeightedValue"]


class TimeWeightedValue:
    """Integrates a piecewise-constant real-valued signal over time."""

    def __init__(self, env: Environment, initial: float = 0.0) -> None:
        self.env = env
        self._value = float(initial)
        self._last_change = env.now
        self._integral = 0.0
        self._start = env.now

    @property
    def value(self) -> float:
        """Current value of the signal."""
        return self._value

    def set(self, value: float) -> None:
        """Change the signal's value as of the current simulated time."""
        now = self.env.now
        self._integral += self._value * (now - self._last_change)
        self._value = float(value)
        self._last_change = now

    def integral(self) -> float:
        """Integral of the signal from monitor creation until now."""
        return self._integral + self._value * (self.env.now - self._last_change)

    def time_average(self) -> float:
        """Time average of the signal; 0 when no time has elapsed."""
        elapsed = self.env.now - self._start
        if elapsed <= 0:
            return 0.0
        return self.integral() / elapsed

    def reset(self) -> None:
        """Restart integration from the current time, keeping the value."""
        self._integral = 0.0
        self._last_change = self.env.now
        self._start = self.env.now


class StateFractionMonitor:
    """Fraction of time a boolean condition held."""

    def __init__(self, env: Environment, initial: bool = False) -> None:
        self._signal = TimeWeightedValue(env, 1.0 if initial else 0.0)

    @property
    def active(self) -> bool:
        """Whether the condition currently holds."""
        return self._signal.value > 0.5

    def set(self, active: bool) -> None:
        """Record the condition becoming true/false now."""
        self._signal.set(1.0 if active else 0.0)

    def active_time(self) -> float:
        """Total time the condition has held."""
        return self._signal.integral()

    def fraction(self) -> float:
        """Fraction of elapsed time the condition held."""
        return self._signal.time_average()

    def reset(self) -> None:
        """Restart measurement from the current time."""
        self._signal.reset()


class TimeSeriesMonitor:
    """Samples an instantaneous indicator at fixed virtual times.

    Unlike the integrating monitors above, this one *records* —
    ``probe()`` is evaluated exactly at each grid time, so warmup
    resets elsewhere never touch it.  Replications of the same grid
    average pointwise into a mean curve with CI bands
    (:func:`repro.sim.stats.student_t_interval`).

    Sampling starts with a zero-delay call scheduled at construction,
    which records every grid time already due and schedules one call
    for the next grid time; each of those records its sample and
    schedules the next.  Grid times must be sorted non-decreasing and
    not lie in the past.  A sample at the same instant as other work
    fires after the calls scheduled earlier (FIFO tie-break), so
    harnesses create this monitor *after* the fault schedules: a sample
    at a crash instant sees the post-crash state, matching the analytic
    convention.
    """

    def __init__(
        self,
        env: Environment,
        times: Sequence[float],
        probe: Callable[[], float],
    ) -> None:
        self.env = env
        self.times = tuple(float(t) for t in times)
        if any(b < a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("sample times must be sorted non-decreasing")
        if self.times and self.times[0] < env.now:
            raise ValueError(
                f"first sample time {self.times[0]} is before now ({env.now})"
            )
        self._probe = probe
        self._samples: list[float] = []
        if self.times:
            env.call_later(0.0, self._sample_due, 0)

    def _sample_due(self, start: int) -> None:
        for index in range(start, len(self.times)):
            delay = self.times[index] - self.env.now
            if delay > 0:
                self.env.call_later(delay, self._sample_at, index)
                return
            self._samples.append(float(self._probe()))

    def _sample_at(self, index: int) -> None:
        self._samples.append(float(self._probe()))
        self._sample_due(index + 1)

    def samples(self) -> tuple[float, ...]:
        """The values recorded so far, one per elapsed grid time."""
        return tuple(self._samples)
