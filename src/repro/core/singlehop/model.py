"""The single-hop analytic model and its performance metrics.

:class:`SingleHopModel` assembles the Fig. 3 chain for one protocol,
and :meth:`SingleHopModel.solve` produces a :class:`SingleHopSolution`
carrying the paper's three metrics:

* ``inconsistency_ratio`` — eq. (1): ``I = 1 - pi_C`` on the recurrent
  chain (absorbing state merged into the start state);
* ``normalized_message_rate`` — eq. (2) and the normalization
  ``M = Lambda * mu_r``, where ``Lambda = L * m`` with ``L`` the mean
  receiver-side session length (mean time to absorption) and ``m`` the
  stationary message rate;
* ``integrated_cost(weight)`` — eq. (8): ``C = weight * I + M``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.core.markov import ContinuousTimeMarkovChain, RowSolution, StateSpace
from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import (
    build_transition_rates,
    recurrent_space,
    state_space,
)

__all__ = ["FINITE_SESSION_REQUIRED", "SingleHopModel", "SingleHopSolution"]

#: Why a single-hop model rejects ``removal_rate <= 0``: the lifetime
#: (time to absorption) of an infinite session does not exist.
FINITE_SESSION_REQUIRED = (
    "single-hop model requires a finite session (removal_rate > 0); "
    "the multi-hop model covers the infinite-lifetime regime"
)


@dataclasses.dataclass(frozen=True)
class SingleHopSolution(RowSolution):
    """Solved metrics of one protocol/parameter combination."""

    protocol: Protocol
    params: SignalingParameters
    row: Sequence[float]
    space: StateSpace = dataclasses.field(repr=False, compare=False)
    inconsistency_ratio: float
    expected_receiver_lifetime: float
    message_breakdown: dict[str, float]

    @property
    def total_messages(self) -> float:
        """``Lambda = L * m`` — expected messages over a session (eq. 2)."""
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

    def occupancy(self, state: S) -> float:
        """Stationary probability of ``state`` (0 for states not in the chain)."""
        return self.stationary.get(state, 0.0)


class SingleHopModel:
    """The paper's unified single-hop CTMC, specialized to one protocol.

    The constructor only validates; the chains are built on demand from
    the :func:`~repro.core.singlehop.transitions.transition_specs` list.
    """

    def __init__(self, protocol: Protocol, params: SignalingParameters) -> None:
        if params.removal_rate <= 0:
            raise ValueError(FINITE_SESSION_REQUIRED)
        self.protocol = Protocol(protocol)
        self.params = params

    def transient_chain(self) -> ContinuousTimeMarkovChain:
        """The lifecycle chain with ``(0,0)`` absorbing (Fig. 3 as drawn)."""
        return ContinuousTimeMarkovChain(state_space(self.protocol), self.transition_rates())

    def recurrent_chain(self) -> ContinuousTimeMarkovChain:
        """The renewal chain: ``(0,0)`` merged into the start ``(1,0)_1``."""
        return self.transient_chain().merge_states(S.ABSORBED, S.S10_FAST)

    def transition_rates(self) -> dict[tuple[S, S], float]:
        """The chain's transition rates (Table I materialized)."""
        return build_transition_rates(self.protocol, self.params)

    def solution_from_row(self, row: Sequence[float], lifetime: float) -> SingleHopSolution:
        """Wrap a solved recurrent row (the stationary mass of each
        recurrent state, in order) and receiver lifetime."""
        space = recurrent_space(self.protocol)
        return SingleHopSolution(
            protocol=self.protocol,
            params=self.params,
            row=row,
            space=space,
            inconsistency_ratio=1.0 - row[space.full],
            expected_receiver_lifetime=lifetime,
            message_breakdown=message_rate_components(self.protocol, self.params, row, space),
        )

    def solve(self) -> SingleHopSolution:
        """Compute stationary distribution, ``I``, ``L`` and message rates."""
        transient = self.transient_chain()
        stationary = transient.merge_states(S.ABSORBED, S.S10_FAST).stationary_distribution()
        lifetime = transient.mean_time_to_absorption(S.S10_FAST, [S.ABSORBED])
        return self.solution_from_row(list(stationary.values()), lifetime)


def solve_all(
    params: SignalingParameters,
    protocols: tuple[Protocol, ...] = tuple(Protocol),
) -> dict[Protocol, SingleHopSolution]:
    """Solve every protocol under one parameter set (comparison helper)."""
    return {protocol: SingleHopModel(protocol, params).solve() for protocol in protocols}
