"""Analytic models for signaling over a Gilbert-Elliott channel.

:class:`GilbertSingleHopModel` and :class:`GilbertMultiHopModel` solve
the channel x protocol product chains built by
:mod:`repro.core.gilbert.transitions` and report the same metrics as
their i.i.d. counterparts (:class:`~repro.core.singlehop.model.SingleHopModel`,
:class:`~repro.core.multihop.model.MultiHopModel`), so the ``burst_loss``
scenarios can put bursty and i.i.d. curves on one axis.

Metric definitions on the product chain:

* inconsistency — one minus the total (both-channel) mass of the
  consistent protocol state;
* expected receiver lifetime (single-hop) — by renewal-reward, the
  reciprocal of the stationary absorption-edge flow (the product chain
  is built recurrent, with absorbing edges redirected to the renewal
  start, so the flow through those edges is the renewal rate);
* message breakdown — the per-channel conditional protocol distribution
  fed through the reference message-component functions at that
  channel's loss probability, weighted by channel occupancy.  The
  components are linear in the distribution, so this is exact.

**Degeneracy contract:** when ``loss_good == loss_bad`` the modulator is
invisible and the models delegate to the i.i.d. models outright —
metrics are copied verbatim (bit-identical, not merely close) and the
product stationary distribution is synthesized in exact product form
(channel occupancy times i.i.d. mass).
"""

from __future__ import annotations

import dataclasses

from repro.core.gilbert.transitions import (
    CHANNEL_STATES,
    ChannelState,
    build_gilbert_multihop_rates,
    build_gilbert_singlehop_rates,
    channel_loss,
    gilbert_absorption_flow,
    gilbert_multihop_states,
    gilbert_singlehop_states,
)
from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.messages import multihop_message_components
from repro.core.multihop.model import MultiHopModel, MultiHopSolution
from repro.core.multihop.states import RECOVERY, HopState, multihop_state_space
from repro.core.multihop.transitions import supported_protocols
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.model import (
    FINITE_SESSION_REQUIRED,
    SingleHopModel,
    SingleHopSolution,
)
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import state_space
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "GilbertMultiHopModel",
    "GilbertMultiHopSolution",
    "GilbertSingleHopModel",
    "GilbertSingleHopSolution",
    "degenerate_multihop_solution",
    "degenerate_singlehop_solution",
    "multihop_solution_from_stationary",
    "singlehop_solution_from_stationary",
]


@dataclasses.dataclass(frozen=True)
class GilbertSingleHopSolution:
    """Solved single-hop metrics under a Gilbert-Elliott channel.

    ``params.loss_rate`` is superseded by the channel's per-state loss
    probabilities; every other field of ``params`` is in effect.
    """

    protocol: Protocol
    params: SignalingParameters
    gilbert: GilbertElliottParameters
    stationary: dict[tuple[S, ChannelState], float]
    inconsistency_ratio: float
    expected_receiver_lifetime: float
    message_breakdown: dict[str, float]

    @property
    def message_rate(self) -> float:
        """Stationary signaling message rate ``m`` (messages/s)."""
        return sum(self.message_breakdown.values())

    @property
    def total_messages(self) -> float:
        """``Lambda = L * m`` — expected messages over a session."""
        return self.expected_receiver_lifetime * self.message_rate

    @property
    def normalized_message_rate(self) -> float:
        """``M = Lambda * mu_r`` — messages per mean sender session."""
        return self.total_messages * self.params.removal_rate

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``C = weight * I + M`` (eq. 8); ``weight`` in messages/s."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        return weight * self.inconsistency_ratio + self.normalized_message_rate

    def occupancy(self, state: tuple[S, ChannelState]) -> float:
        """Stationary probability of one product state."""
        return self.stationary.get(state, 0.0)

    def channel_occupancy(self, channel: ChannelState) -> float:
        """Total stationary mass of one channel slice."""
        return sum(
            probability
            for (_, state_channel), probability in self.stationary.items()
            if state_channel is channel
        )


@dataclasses.dataclass(frozen=True)
class GilbertMultiHopSolution:
    """Solved multi-hop metrics under a Gilbert-Elliott channel.

    All hops share one channel process (the model's bursts are
    path-wide, matching the simulator's single shared modulator);
    ``params.loss_rate`` is superseded by the channel.
    """

    protocol: Protocol
    params: MultiHopParameters
    gilbert: GilbertElliottParameters
    stationary: dict[tuple[object, ChannelState], float]
    inconsistency_ratio: float
    message_breakdown: dict[str, float]

    @property
    def message_rate(self) -> float:
        """Total per-link transmissions per second."""
        return sum(self.message_breakdown.values())

    def hop_inconsistency(self, hop: int) -> float:
        """Fraction of time hop ``hop`` (1-based) is inconsistent."""
        if not 1 <= hop <= self.params.hops:
            raise ValueError(f"hop must be in [1, {self.params.hops}], got {hop}")
        total = 0.0
        for (proto_state, _channel), probability in self.stationary.items():
            if proto_state is RECOVERY:
                total += probability
            elif isinstance(proto_state, HopState) and proto_state.consistent_hops < hop:
                total += probability
        return total

    def hop_profile(self) -> list[float]:
        """``[hop_inconsistency(1), ..., hop_inconsistency(N)]``."""
        return [self.hop_inconsistency(h) for h in range(1, self.params.hops + 1)]

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``weight * I + message_rate`` — the eq. (8) cost in this regime."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        return weight * self.inconsistency_ratio + self.message_rate

    def channel_occupancy(self, channel: ChannelState) -> float:
        """Total stationary mass of one channel slice."""
        return sum(
            probability
            for (_, state_channel), probability in self.stationary.items()
            if state_channel is channel
        )


# ----------------------------------------------------------------------
# Solution constructors (shared between models and compiled templates)
# ----------------------------------------------------------------------


def _blended_singlehop_breakdown(
    protocol: Protocol,
    params: SignalingParameters,
    gilbert: GilbertElliottParameters,
    stationary: dict[tuple[S, ChannelState], float],
) -> dict[str, float]:
    proto_states = tuple(s for s in state_space(protocol) if s is not S.ABSORBED)
    totals: dict[str, float] = {}
    for channel in CHANNEL_STATES:
        weight = sum(stationary.get((s, channel), 0.0) for s in proto_states)
        if weight <= 0.0:
            continue
        conditional = {
            s: stationary.get((s, channel), 0.0) / weight for s in proto_states
        }
        components = message_rate_components(
            protocol,
            params.replace(loss_rate=channel_loss(gilbert, channel)),
            conditional,
        )
        for key, value in components.items():
            totals[key] = totals.get(key, 0.0) + weight * value
    return totals


def _blended_multihop_breakdown(
    protocol: Protocol,
    params: MultiHopParameters,
    gilbert: GilbertElliottParameters,
    stationary: dict[tuple[object, ChannelState], float],
) -> dict[str, float]:
    proto_states = multihop_state_space(
        params.hops, with_recovery=protocol is Protocol.HS
    )
    totals: dict[str, float] = {}
    for channel in CHANNEL_STATES:
        weight = sum(stationary.get((s, channel), 0.0) for s in proto_states)
        if weight <= 0.0:
            continue
        conditional = {
            s: stationary.get((s, channel), 0.0) / weight for s in proto_states
        }
        components = multihop_message_components(
            protocol,
            params.replace(loss_rate=channel_loss(gilbert, channel)),
            conditional,
        )
        for key, value in components.items():
            totals[key] = totals.get(key, 0.0) + weight * value
    return totals


def singlehop_solution_from_stationary(
    protocol: Protocol,
    params: SignalingParameters,
    gilbert: GilbertElliottParameters,
    stationary: dict[tuple[S, ChannelState], float],
) -> GilbertSingleHopSolution:
    """Assemble the solution from a solved product stationary distribution."""
    inconsistency = 1.0 - sum(
        stationary.get((S.CONSISTENT, channel), 0.0) for channel in CHANNEL_STATES
    )
    flow = gilbert_absorption_flow(protocol, params, gilbert, stationary)
    lifetime = float("inf") if flow <= 0.0 else 1.0 / flow
    return GilbertSingleHopSolution(
        protocol=protocol,
        params=params,
        gilbert=gilbert,
        stationary=stationary,
        inconsistency_ratio=inconsistency,
        expected_receiver_lifetime=lifetime,
        message_breakdown=_blended_singlehop_breakdown(
            protocol, params, gilbert, stationary
        ),
    )


def multihop_solution_from_stationary(
    protocol: Protocol,
    params: MultiHopParameters,
    gilbert: GilbertElliottParameters,
    stationary: dict[tuple[object, ChannelState], float],
) -> GilbertMultiHopSolution:
    """Assemble the solution from a solved product stationary distribution."""
    top = HopState(params.hops, False)
    inconsistency = 1.0 - sum(
        stationary.get((top, channel), 0.0) for channel in CHANNEL_STATES
    )
    return GilbertMultiHopSolution(
        protocol=protocol,
        params=params,
        gilbert=gilbert,
        stationary=stationary,
        inconsistency_ratio=inconsistency,
        message_breakdown=_blended_multihop_breakdown(
            protocol, params, gilbert, stationary
        ),
    )


def _product_stationary(
    base_stationary: dict[object, float],
    gilbert: GilbertElliottParameters,
    states: tuple[tuple[object, ChannelState], ...],
) -> dict[tuple[object, ChannelState], float]:
    weights = {
        ChannelState.GOOD: gilbert.stationary_good,
        ChannelState.BAD: gilbert.stationary_bad,
    }
    return {
        (proto_state, channel): weights[channel] * base_stationary.get(proto_state, 0.0)
        for proto_state, channel in states
    }


def degenerate_singlehop_solution(
    params: SignalingParameters,
    gilbert: GilbertElliottParameters,
    base: SingleHopSolution,
) -> GilbertSingleHopSolution:
    """Wrap an i.i.d. solution as the degenerate Gilbert solution.

    Metrics are the base solution's floats verbatim; the product
    stationary distribution is the exact product of channel occupancy
    and i.i.d. mass (the modulator is independent of the protocol when
    it does not affect losses).
    """
    return GilbertSingleHopSolution(
        protocol=base.protocol,
        params=params,
        gilbert=gilbert,
        stationary=_product_stationary(
            base.stationary, gilbert, gilbert_singlehop_states(base.protocol)
        ),
        inconsistency_ratio=base.inconsistency_ratio,
        expected_receiver_lifetime=base.expected_receiver_lifetime,
        message_breakdown=dict(base.message_breakdown),
    )


def degenerate_multihop_solution(
    params: MultiHopParameters,
    gilbert: GilbertElliottParameters,
    base: MultiHopSolution,
) -> GilbertMultiHopSolution:
    """Wrap an i.i.d. multi-hop solution as the degenerate Gilbert solution."""
    return GilbertMultiHopSolution(
        protocol=base.protocol,
        params=params,
        gilbert=gilbert,
        stationary=_product_stationary(
            base.stationary,
            gilbert,
            gilbert_multihop_states(base.protocol, params.hops),
        ),
        inconsistency_ratio=base.inconsistency_ratio,
        message_breakdown=dict(base.message_breakdown),
    )


# ----------------------------------------------------------------------
# Reference models
# ----------------------------------------------------------------------


class GilbertSingleHopModel:
    """The single-hop product chain for one protocol and channel."""

    def __init__(
        self,
        protocol: Protocol,
        params: SignalingParameters,
        gilbert: GilbertElliottParameters,
    ) -> None:
        if params.removal_rate <= 0:
            raise ValueError(FINITE_SESSION_REQUIRED)
        self.protocol = Protocol(protocol)
        self.params = params
        self.gilbert = gilbert

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent product CTMC."""
        return ContinuousTimeMarkovChain(
            gilbert_singlehop_states(self.protocol),
            build_gilbert_singlehop_rates(self.protocol, self.params, self.gilbert),
        )

    def solve(self) -> GilbertSingleHopSolution:
        """Solve the product chain (or delegate when degenerate)."""
        if self.gilbert.is_degenerate:
            base = SingleHopModel(
                self.protocol, self.params.replace(loss_rate=self.gilbert.loss_good)
            ).solve()
            return degenerate_singlehop_solution(self.params, self.gilbert, base)
        stationary = self.chain().stationary_distribution()
        return singlehop_solution_from_stationary(
            self.protocol, self.params, self.gilbert, stationary
        )


class GilbertMultiHopModel:
    """The multi-hop product chain for one protocol and channel."""

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        gilbert: GilbertElliottParameters,
    ) -> None:
        protocol = Protocol(protocol)
        if protocol not in supported_protocols():
            raise ValueError(
                f"{protocol.value} is not modeled in the multi-hop analysis; "
                f"use one of {[p.value for p in supported_protocols()]}"
            )
        self.protocol = protocol
        self.params = params
        self.gilbert = gilbert

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent product CTMC."""
        return ContinuousTimeMarkovChain(
            gilbert_multihop_states(self.protocol, self.params.hops),
            build_gilbert_multihop_rates(self.protocol, self.params, self.gilbert),
        )

    def solve(self) -> GilbertMultiHopSolution:
        """Solve the product chain (or delegate when degenerate)."""
        if self.gilbert.is_degenerate:
            base = MultiHopModel(
                self.protocol, self.params.replace(loss_rate=self.gilbert.loss_good)
            ).solve()
            return degenerate_multihop_solution(self.params, self.gilbert, base)
        stationary = self.chain().stationary_distribution()
        return multihop_solution_from_stationary(
            self.protocol, self.params, self.gilbert, stationary
        )
