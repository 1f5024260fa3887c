"""Array primitives for the vectorized (engine-free) simulation path.

The discrete-event engine charges a heap operation, a generator resume
and a callback chain per event; for the refresh-dominated soft-state
protocols almost all of those events are structurally predictable.  The
helpers here compute the same quantities as whole numpy arrays while
preserving the scalar engine's floating-point semantics bit for bit:

* virtual times accumulate by *fold-left* addition (the engine advances
  its clock one ``now + delay`` at a time), so grids are built with
  ``np.cumsum`` — a sequential fold — never with ``start + k * step``;
* channel delivery re-derives the fire time exactly the way
  :class:`~repro.sim.channel.Channel` does (``now + (deliver_at - now)``);
* time-weighted integrals fold contributions in boundary order exactly
  like :class:`~repro.sim.monitor.TimeWeightedValue`, so repeated
  boundaries and zero-width segments are exact no-ops;
* random draws come from caller-provided generators in block form,
  which consumes the underlying bit stream identically to repeated
  scalar draws.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UniformPool",
    "delivery_times",
    "fold_active_time",
    "fold_cumsum",
    "refresh_grid",
]


class UniformPool:
    """Sequential uniform[0, 1) draws served from block requests.

    ``Generator.random(size=n)`` consumes the bit stream exactly like
    ``n`` successive ``Generator.random()`` calls, so taking draws from
    this pool reproduces a scalar simulation's per-message loss draws
    bit for bit, in order.  The pool over-draws in chunks; the unused
    tail only advances generator state that nothing else reads.
    """

    def __init__(self, rng: np.random.Generator, chunk: int = 4096) -> None:
        if chunk < 1:
            raise ValueError(f"chunk must be >= 1, got {chunk}")
        self._rng = rng
        self._chunk = int(chunk)
        self._buffer = np.empty(0)
        self._cursor = 0

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms of the stream, in draw order."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        available = len(self._buffer) - self._cursor
        if count > available:
            grow = max(self._chunk, count - available)
            self._buffer = np.concatenate(
                [self._buffer[self._cursor :], self._rng.random(grow)]
            )
            self._cursor = 0
        taken = self._buffer[self._cursor : self._cursor + count]
        self._cursor += count
        return taken


def fold_cumsum(start: float, increments: np.ndarray) -> np.ndarray:
    """Times reached by successively adding ``increments`` to ``start``.

    Element ``k`` equals ``start + inc_0 + ... + inc_{k-1}`` evaluated
    left to right — the virtual times an engine clock visits when a
    chain of scheduled calls waits through ``increments`` one call at
    a time.
    Element 0 is ``start`` itself.
    """
    row = np.empty(len(increments) + 1)
    row[0] = start
    row[1:] = increments
    return np.cumsum(row)


def refresh_grid(starts: np.ndarray, interval: float, count: int) -> np.ndarray:
    """Fold-left periodic grids: row ``i`` is ``starts[i] + k*interval``.

    Column 0 holds ``starts``; column ``k`` holds the time reached by
    adding ``interval`` to the previous column (sequential fold per
    row), matching a timer loop that re-arms itself ``count`` times.
    """
    grid = np.empty((len(starts), count + 1))
    grid[:, 0] = starts
    grid[:, 1:] = interval
    return np.cumsum(grid, axis=1)


def delivery_times(send_times: np.ndarray, delay: float) -> np.ndarray:
    """Delivery times of in-order sends over a constant-delay channel.

    The event engine schedules delivery as ``now + (deliver_at - now)``
    with ``deliver_at = now + delay``; the double rounding is preserved
    here so vectorized receipts land on the exact same floats.
    """
    deliver_at = send_times + delay
    return send_times + (deliver_at - send_times)


def fold_active_time(times: np.ndarray, flags: np.ndarray) -> float:
    """Integral of a 0/1 signal over its boundary sequence.

    ``flags[i]`` is the signal value set at ``times[i]``; each segment
    contributes ``flag * (t_next - t)`` and contributions accumulate in
    boundary order (sequential fold), replicating
    :meth:`~repro.sim.monitor.TimeWeightedValue.set` exactly — including
    the float grouping across repeated and zero-width boundaries.
    """
    if len(times) < 2:
        return 0.0
    contributions = flags[:-1] * np.diff(times)
    return float(np.cumsum(contributions)[-1])
