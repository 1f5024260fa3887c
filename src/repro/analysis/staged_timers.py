"""Staged refresh timers (Pan & Schulzrinne, related work [12]).

The paper's §IV cites a scheme that "use[s] different soft-state timers
for trigger and refresh messages": right after a trigger, refreshes are
sent on a short stage-one timer (so a lost trigger is repaired fast),
then the sender backs off to the normal refresh interval once the state
has presumably been delivered.  This recovers much of SS+RT's
trigger-loss protection *without* ACKs or receiver changes.

This module implements the staged sender on the simulator and a
side-by-side evaluation against pure SS and SS+RT.
"""

from __future__ import annotations

import dataclasses

from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.sender import SignalingSender
from repro.protocols.session import SingleHopSimulation
from repro.sim.randomness import RandomStreams
from repro.sim.stats import ReplicationSet

__all__ = [
    "StagedRefreshConfig",
    "StagedRefreshSender",
    "StagedRefreshSimulation",
    "compare_staged_refresh",
]


@dataclasses.dataclass(frozen=True)
class StagedRefreshConfig:
    """Stage-one (post-trigger) refresh behavior."""

    fast_interval: float
    fast_count: int = 2

    def __post_init__(self) -> None:
        if self.fast_interval <= 0:
            raise ValueError(f"fast_interval must be positive, got {self.fast_interval}")
        if self.fast_count < 1:
            raise ValueError(f"fast_count must be >= 1, got {self.fast_count}")


class StagedRefreshSender(SignalingSender):
    """SS sender whose first refreshes after a trigger run on a fast timer."""

    def __init__(self, *args, staged: StagedRefreshConfig, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.staged = staged
        self._stage_one_remaining = 0

    def _restart_refresh_loop(self) -> None:
        self._stage_one_remaining = self.staged.fast_count
        super()._restart_refresh_loop()

    def _refresh_interval(self) -> float:
        if self._stage_one_remaining > 0:
            self._stage_one_remaining -= 1
            return self.staged.fast_interval
        return super()._refresh_interval()


class StagedRefreshSimulation(SingleHopSimulation):
    """The single-hop harness with the staged sender swapped in.

    The receiver is unchanged — staging is sender-only, which is the
    scheme's deployment appeal.
    """

    def __init__(self, config: SingleHopSimConfig, staged: StagedRefreshConfig) -> None:
        if config.protocol is not Protocol.SS:
            raise ValueError("staged refresh augments the pure SS protocol")
        super().__init__(config)
        # Rebuild the sender as the staged variant, reusing the wiring.
        base = self.sender
        self.sender = StagedRefreshSender(
            self.env,
            config.protocol,
            config.params,
            refresh_timer=base._refresh_timer,
            retransmission_timer=base._retx_timer,
            transmit=base._transmit,
            on_value_change=self._update_consistency,
            staged=staged,
        )


@dataclasses.dataclass(frozen=True)
class StagedComparison:
    """Replicated results of staged SS vs its neighbors on the spectrum."""

    staged: ReplicationSet
    plain_ss: ReplicationSet

    def inconsistency_improvement(self) -> float:
        """Relative inconsistency reduction of staging over plain SS."""
        base = self.plain_ss.mean("inconsistency_ratio")
        if base == 0:
            return 0.0
        return (base - self.staged.mean("inconsistency_ratio")) / base

    def overhead_increase(self) -> float:
        """Relative message-rate increase of staging over plain SS."""
        base = self.plain_ss.mean("normalized_message_rate")
        if base == 0:
            return 0.0
        return (self.staged.mean("normalized_message_rate") - base) / base


def compare_staged_refresh(
    params: SignalingParameters,
    staged: StagedRefreshConfig | None = None,
    sessions: int = 200,
    replications: int = 4,
    seed: int = 1203,
) -> StagedComparison:
    """Run staged SS and plain SS with shared seeds."""
    staged = staged or StagedRefreshConfig(fast_interval=2.0 * params.delay)
    streams = RandomStreams(seed)
    staged_set = ReplicationSet()
    plain_set = ReplicationSet()
    for index in range(replications):
        config = SingleHopSimConfig(
            protocol=Protocol.SS,
            params=params,
            sessions=sessions,
            seed=streams.spawn(index).seed,
        )
        staged_result = StagedRefreshSimulation(config, staged).run()
        plain_result = SingleHopSimulation(config).run()
        for target, outcome in ((staged_set, staged_result), (plain_set, plain_result)):
            target.add("inconsistency_ratio", outcome.inconsistency_ratio)
            target.add(
                "normalized_message_rate",
                outcome.normalized_message_rate(params.removal_rate),
            )
    return StagedComparison(staged=staged_set, plain_ss=plain_set)
