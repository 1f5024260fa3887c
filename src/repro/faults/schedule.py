"""Deterministic fault schedules: link flaps and node crash/restart.

Unlike the Gilbert-Elliott modulator — which is *stochastic* and driven
through a named random stream — fault schedules are fully deterministic
time programs: given the schedule, the set of outage windows and crash
events is fixed before the simulation starts.  That makes recovery
curves reproducible point-for-point and lets the ``link_flap`` scenarios
sweep flap rate without confounding it with sampling noise in the fault
process itself.

The multi-hop simulator (:mod:`repro.multihop.tree`, which also runs
the chains) realizes a schedule as chains of scheduled calls that
toggle a channel's ``down`` flag (link flap: messages sent during an
outage are lost deterministically, consuming no randomness) or clear a
node's soft state (crash: installed state is lost; restart re-enables
the node and lets the protocol's own refresh/timeout machinery rebuild
it).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterator, Tuple

__all__ = ["FaultSchedule", "LinkFlap", "NodeCrash"]


@dataclasses.dataclass(frozen=True)
class LinkFlap:
    """A periodic link outage: down for ``down_duration`` every ``period``.

    ``link`` names the affected edge by its child node (on a chain,
    hop ``h`` is the edge into node ``h``).  The k-th outage window is
    ``[offset + k*period, offset + k*period + down_duration)``.
    """

    link: int
    period: float
    down_duration: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError(f"period must be positive, got {self.period}")
        if not 0.0 < self.down_duration < self.period:
            raise ValueError(
                "down_duration must be in (0, period), got "
                f"{self.down_duration} with period {self.period}"
            )
        if not (math.isfinite(self.offset) and self.offset >= 0):
            raise ValueError(f"offset must be non-negative, got {self.offset}")

    def windows(self, horizon: float) -> Iterator[Tuple[float, float]]:
        """Yield (down_at, up_at) outage windows starting before ``horizon``."""
        start = self.offset
        while start < horizon:
            yield (start, start + self.down_duration)
            start += self.period

    def is_down(self, now: float) -> bool:
        """Whether the link is inside an outage window at time ``now``."""
        if now < self.offset:
            return False
        phase = (now - self.offset) % self.period
        return phase < self.down_duration


@dataclasses.dataclass(frozen=True)
class NodeCrash:
    """A one-shot node crash with state loss, restarting after a delay.

    At time ``at`` the node loses all installed soft state; at
    ``at + restart_after`` it resumes normal processing with empty
    state, to be repopulated by the signaling protocol itself.
    """

    node: int
    at: float
    restart_after: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"at must be non-negative, got {self.at}")
        if not (math.isfinite(self.restart_after) and self.restart_after > 0):
            raise ValueError(
                f"restart_after must be positive, got {self.restart_after}"
            )

    @property
    def restart_at(self) -> float:
        return self.at + self.restart_after


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """A bundle of deterministic faults injected into one simulation run."""

    flaps: Tuple[LinkFlap, ...] = ()
    crashes: Tuple[NodeCrash, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "flaps", tuple(self.flaps))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    def flaps_for(self, link: int) -> Tuple[LinkFlap, ...]:
        """Flaps affecting the given link, in schedule order."""
        return tuple(flap for flap in self.flaps if flap.link == link)

    def crashes_for(self, node: int) -> Tuple[NodeCrash, ...]:
        """Crashes affecting the given node, sorted by crash time."""
        return tuple(
            sorted(
                (crash for crash in self.crashes if crash.node == node),
                key=lambda crash: crash.at,
            )
        )

    @property
    def is_empty(self) -> bool:
        return not self.flaps and not self.crashes

    def shifted(self, offset: float) -> "FaultSchedule":
        """The same schedule delayed by ``offset`` seconds.

        The transient scenarios state fault times relative to the start
        of *measurement*; a simulation with a warmup window shifts the
        whole program so model time ``t`` lands at virtual time
        ``warmup + t``.
        """
        if not (math.isfinite(offset) and offset >= 0):
            raise ValueError(f"offset must be non-negative, got {offset}")
        return FaultSchedule(
            flaps=tuple(
                dataclasses.replace(flap, offset=flap.offset + offset)
                for flap in self.flaps
            ),
            crashes=tuple(
                dataclasses.replace(crash, at=crash.at + offset)
                for crash in self.crashes
            ),
        )
