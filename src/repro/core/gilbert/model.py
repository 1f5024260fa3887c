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
import functools
from collections.abc import Sequence

from repro.core.gilbert.transitions import (
    CHANNEL_STATES,
    MULTIHOP,
    SINGLEHOP,
    BaseFamily,
    ChannelState,
    build_gilbert_rates,
    channel_loss,
    gilbert_absorption_flow,
    gilbert_space,
)
from repro.core.markov import ContinuousTimeMarkovChain, RowSolution, StateSpace, ordered_sum
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.tree_model import NodeViews, TreeModel
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


class _ProductSolution(RowSolution):
    """The metrics both product solutions read the same way.

    ``row`` is the stationary mass of each product state of ``space``,
    channel-major: one slice of the base's states per channel.
    """

    def channel_occupancy(self, channel: ChannelState) -> float:
        """Total stationary mass of one channel slice."""
        n = len(self.row) // len(CHANNEL_STATES)
        offset = CHANNEL_STATES.index(channel) * n
        return ordered_sum(self.row[offset : offset + n])

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
    row: Sequence[float]
    space: StateSpace = dataclasses.field(repr=False, compare=False)
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
class GilbertMultiHopSolution(NodeViews, _ProductSolution):
    """Solved multi-hop metrics under a Gilbert-Elliott channel.

    All hops share one channel process (the model's bursts are
    path-wide, matching the simulator's single shared modulator);
    ``params.loss_rate`` is superseded by the channel.
    """

    protocol: Protocol
    params: MultiHopParameters
    gilbert: GilbertElliottParameters
    row: Sequence[float]
    space: StateSpace = dataclasses.field(repr=False, compare=False)
    inconsistency_ratio: float
    message_breakdown: dict[str, float]

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

    @functools.cached_property
    def space(self) -> StateSpace:
        """The product chain's state space."""
        return gilbert_space(self.base, self.protocol, *self.shape)

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent product CTMC."""
        return ContinuousTimeMarkovChain(
            self.space.states,
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
        return self.solution_from_row([stationary[state] for state in self.space.states])

    def solution_from_row(self, row: Sequence[float]):
        """Assemble the solution from a solved product row (channel-major)."""
        base, protocol, params, gilbert = self.base, self.protocol, self.params, self.gilbert
        proto = base.space(protocol, *self.shape)
        # The consistent state's mass in each channel slice.
        consistent = ordered_sum(row[proto.full :: len(proto.states)])
        metrics = {}
        if base.absorbing is not None:
            flow = gilbert_absorption_flow(base, protocol, params, gilbert, row)
            metrics["expected_receiver_lifetime"] = float("inf") if flow <= 0.0 else 1.0 / flow
        return self.solution(
            protocol=protocol,
            params=params,
            gilbert=gilbert,
            row=row,
            space=self.space,
            inconsistency_ratio=1.0 - consistent,
            message_breakdown=self._blended_breakdown(row, proto),
            **metrics,
        )

    def _blended_breakdown(self, row: Sequence[float], proto: StateSpace) -> dict[str, float]:
        """Each channel slice's conditional row through the base's
        accounting at that channel's loss, weighted by its mass."""
        n = len(proto.states)
        totals: dict[str, float] = {}
        for offset, channel in zip(range(0, len(row), n), CHANNEL_STATES):
            block = row[offset : offset + n]
            weight = ordered_sum(block)
            if weight <= 0.0:
                continue
            components = self.base.messages(
                self.protocol,
                self.params.replace(loss_rate=channel_loss(self.gilbert, channel)),
                [probability / weight for probability in block],
                proto,
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
            row=[weights[channel] * mass for channel in CHANNEL_STATES for mass in iid.row],
            space=self.space,
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
