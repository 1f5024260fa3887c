"""Analytic models for signaling over a Gilbert-Elliott channel.

One model body solves the channel x protocol product chain that
:mod:`repro.core.gilbert.transitions` lifts from an i.i.d. base family.
:class:`GilbertSingleHopModel` and :class:`GilbertMultiHopModel` are thin
subclasses that name their base, the i.i.d. model a degenerate channel
delegates to, and their solution type.  They report the same metrics as
their i.i.d. counterparts
(:class:`~repro.core.singlehop.model.SingleHopModel`, and
:class:`~repro.core.multihop.tree_model.TreeModel` on
``Topology.chain(N)``), so the ``burst_loss`` scenarios can put bursty
and i.i.d. curves on one axis.

Metric definitions on the product chain:

* inconsistency — one minus the total (both-channel) mass of the
  consistent protocol state;
* expected receiver lifetime (single-hop) — by renewal-reward, the
  reciprocal of the stationary absorption-edge flow (the product chain
  is built recurrent, with absorbing edges redirected to the renewal
  start, so the flow through those edges is the renewal rate);
* message breakdown — the per-channel conditional protocol distribution
  fed through the base's message-component function at that channel's
  loss probability, weighted by channel occupancy.  The components are
  linear in the distribution, so this is exact.

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
    MULTIHOP,
    SINGLEHOP,
    BaseFamily,
    ChannelState,
    build_gilbert_rates,
    channel_loss,
    gilbert_absorption_flow,
    gilbert_states,
)
from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.tree_model import TreeModel
from repro.core.multihop.tree_states import RECOVERY, TreeState
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.model import FINITE_SESSION_REQUIRED, SingleHopModel
from repro.core.singlehop.states import SingleHopState as S
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "GilbertMultiHopModel",
    "GilbertMultiHopSolution",
    "GilbertSingleHopModel",
    "GilbertSingleHopSolution",
]


class _ProductSolution:
    """The metrics both product solutions read the same way."""

    @property
    def message_rate(self) -> float:
        """Stationary message rate (messages/s; per-link transmissions on a chain)."""
        return sum(self.message_breakdown.values())

    def channel_occupancy(self, channel: ChannelState) -> float:
        """Total stationary mass of one channel slice."""
        return sum(
            probability
            for (_, state_channel), probability in self.stationary.items()
            if state_channel is channel
        )

    def _cost(self, weight: float, messages: float) -> float:
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        return weight * self.inconsistency_ratio + messages


@dataclasses.dataclass(frozen=True)
class GilbertSingleHopSolution(_ProductSolution):
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
    def total_messages(self) -> float:
        """``Lambda = L * m`` — expected messages over a session."""
        return self.expected_receiver_lifetime * self.message_rate

    @property
    def normalized_message_rate(self) -> float:
        """``M = Lambda * mu_r`` — messages per mean sender session."""
        return self.total_messages * self.params.removal_rate

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``C = weight * I + M`` (eq. 8); ``weight`` in messages/s."""
        return self._cost(weight, self.normalized_message_rate)

    def occupancy(self, state: tuple[S, ChannelState]) -> float:
        """Stationary probability of one product state."""
        return self.stationary.get(state, 0.0)


@dataclasses.dataclass(frozen=True)
class GilbertMultiHopSolution(_ProductSolution):
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

    def node_inconsistency(self, node: int) -> float:
        """Fraction of time relay ``node`` (1-based) is inconsistent."""
        if not 1 <= node <= self.params.hops:
            raise ValueError(f"node must be in [1, {self.params.hops}], got {node}")
        total = 0.0
        for (proto_state, _channel), probability in self.stationary.items():
            if proto_state is RECOVERY:
                total += probability
            elif isinstance(proto_state, TreeState) and node not in proto_state.consistent:
                total += probability
        return total

    def hop_profile(self) -> list[float]:
        """:meth:`node_inconsistency` of every relay, in node order."""
        return [self.node_inconsistency(node) for node in range(1, self.params.hops + 1)]

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``weight * I + message_rate`` — the eq. (8) cost in this regime."""
        return self._cost(weight, self.message_rate)


class _GilbertModel:
    """The product chain of one protocol and channel over ``base``."""

    base: BaseFamily
    #: The i.i.d. model a degenerate channel delegates to.
    iid: type
    solution: type

    def __init__(self, protocol: Protocol, params, gilbert: GilbertElliottParameters) -> None:
        self.protocol = Protocol(protocol)
        self.params = params
        self.gilbert = gilbert
        self.shape = self.base.shape(params)

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent product CTMC."""
        return ContinuousTimeMarkovChain(
            gilbert_states(self.base, self.protocol, *self.shape),
            build_gilbert_rates(self.base, self.protocol, self.params, self.gilbert),
        )

    def solve(self):
        """Solve the product chain (or delegate when degenerate)."""
        if self.gilbert.is_degenerate:
            loss = self.gilbert.loss_good
            return self.degenerate(
                self.iid(self.protocol, self.params.replace(loss_rate=loss)).solve()
            )
        return self.solution_from_stationary(self.chain().stationary_distribution())

    def solution_from_stationary(self, stationary: dict):
        """Assemble the solution from a solved product stationary distribution."""
        base, protocol, params, gilbert = self.base, self.protocol, self.params, self.gilbert
        consistent = base.consistent(*self.shape)
        inconsistency = 1.0 - sum(
            stationary.get((consistent, channel), 0.0) for channel in CHANNEL_STATES
        )
        metrics = {}
        if base.absorbing is not None:
            flow = gilbert_absorption_flow(base, protocol, params, gilbert, stationary)
            metrics["expected_receiver_lifetime"] = float("inf") if flow <= 0.0 else 1.0 / flow
        return self.solution(
            protocol=protocol,
            params=params,
            gilbert=gilbert,
            stationary=stationary,
            inconsistency_ratio=inconsistency,
            message_breakdown=self._blended_breakdown(stationary),
            **metrics,
        )

    def _blended_breakdown(self, stationary: dict) -> dict[str, float]:
        proto_states = self.base.states(self.protocol, *self.shape)
        totals: dict[str, float] = {}
        for channel in CHANNEL_STATES:
            weight = sum(stationary.get((s, channel), 0.0) for s in proto_states)
            if weight <= 0.0:
                continue
            conditional = {
                s: stationary.get((s, channel), 0.0) / weight for s in proto_states
            }
            components = self.base.messages(
                self.protocol,
                self.params.replace(loss_rate=channel_loss(self.gilbert, channel)),
                conditional,
            )
            for key, value in components.items():
                totals[key] = totals.get(key, 0.0) + weight * value
        return totals

    def degenerate(self, iid):
        """Wrap the i.i.d. solution ``iid`` as the degenerate Gilbert solution.

        Metrics are the i.i.d. solution's floats verbatim; the product
        stationary distribution is the exact product of channel
        occupancy and i.i.d. mass (the modulator is independent of the
        protocol when it does not affect losses).
        """
        weights = {
            ChannelState.GOOD: self.gilbert.stationary_good,
            ChannelState.BAD: self.gilbert.stationary_bad,
        }
        metrics = {}
        if self.base.absorbing is not None:
            metrics["expected_receiver_lifetime"] = iid.expected_receiver_lifetime
        return self.solution(
            protocol=iid.protocol,
            params=self.params,
            gilbert=self.gilbert,
            stationary={
                (proto_state, channel): weights[channel] * iid.stationary.get(proto_state, 0.0)
                for proto_state, channel in gilbert_states(self.base, iid.protocol, *self.shape)
            },
            inconsistency_ratio=iid.inconsistency_ratio,
            message_breakdown=dict(iid.message_breakdown),
            **metrics,
        )


class GilbertSingleHopModel(_GilbertModel):
    """The single-hop product chain for one protocol and channel."""

    base = SINGLEHOP
    iid = SingleHopModel
    solution = GilbertSingleHopSolution

    def __init__(
        self,
        protocol: Protocol,
        params: SignalingParameters,
        gilbert: GilbertElliottParameters,
    ) -> None:
        if params.removal_rate <= 0:
            raise ValueError(FINITE_SESSION_REQUIRED)
        super().__init__(protocol, params, gilbert)


def _chain_model(protocol: Protocol, params: MultiHopParameters) -> TreeModel:
    return TreeModel(protocol, params, Topology.chain(params.hops))


class GilbertMultiHopModel(_GilbertModel):
    """The multi-hop product chain for one protocol and channel."""

    base = MULTIHOP
    iid = staticmethod(_chain_model)
    solution = GilbertMultiHopSolution

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        gilbert: GilbertElliottParameters,
    ) -> None:
        super().__init__(multihop_protocol(protocol), params, gilbert)
