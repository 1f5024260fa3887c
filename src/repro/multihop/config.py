"""Configuration for the multi-hop simulation (chains and trees)."""

from __future__ import annotations

import dataclasses

from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol
from repro.faults.gilbert import GilbertElliottParameters
from repro.faults.schedule import FaultSchedule
from repro.sim.randomness import TimerDiscipline

__all__ = ["MultiHopSimConfig"]


@dataclasses.dataclass(frozen=True)
class MultiHopSimConfig:
    """One replication of the multi-hop simulation.

    The multi-hop regime is stationary (infinite state lifetime, Poisson
    updates), so the run is bounded by ``horizon`` simulated seconds
    rather than a session count.  ``warmup`` seconds are discarded
    before measurement starts.

    Fault injection (see :mod:`repro.faults`): ``gilbert`` replaces the
    i.i.d. Bernoulli loss with a bursty Gilbert-Elliott modulator shared
    by every hop channel (one path-wide channel state, matching the
    product-chain models); ``faults`` is a deterministic schedule of
    link flaps and node crash/restart events, realized as simulation
    processes by the harness.

    ``sample_times`` (absolute virtual times, sorted) makes the run
    record the end-to-end consistency indicator at each grid time via
    :class:`~repro.sim.monitor.TimeSeriesMonitor` — the sim side of
    the transient recovery curves.
    """

    protocol: Protocol
    params: MultiHopParameters
    horizon: float = 20_000.0
    warmup: float = 500.0
    timer_discipline: TimerDiscipline = TimerDiscipline.DETERMINISTIC
    delay_discipline: TimerDiscipline = TimerDiscipline.DETERMINISTIC
    seed: int = 20030825
    gilbert: GilbertElliottParameters | None = None
    faults: FaultSchedule | None = None
    sample_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.protocol not in Protocol.multihop_family():
            raise ValueError(
                f"{self.protocol} is not simulated in the multi-hop setting; "
                f"use one of {[p.value for p in Protocol.multihop_family()]}"
            )
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0 <= self.warmup < self.horizon:
            raise ValueError(
                f"warmup must be in [0, horizon), got {self.warmup} vs {self.horizon}"
            )
        if self.faults is not None:
            hops = self.params.hops
            for flap in self.faults.flaps:
                if not 1 <= flap.link <= hops:
                    raise ValueError(
                        f"flap link must be in [1, {hops}], got {flap.link}"
                    )
            for crash in self.faults.crashes:
                if not 1 <= crash.node <= hops:
                    raise ValueError(
                        f"crash node must be in [1, {hops}], got {crash.node}"
                    )
        if self.sample_times:
            times = self.sample_times
            if any(b < a for a, b in zip(times, times[1:])):
                raise ValueError("sample_times must be sorted non-decreasing")
            if times[0] < 0 or times[-1] > self.horizon:
                raise ValueError(
                    f"sample_times must lie in [0, horizon], got "
                    f"[{times[0]}, {times[-1]}] vs horizon {self.horizon}"
                )

    def replace(self, **changes: object) -> "MultiHopSimConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)
