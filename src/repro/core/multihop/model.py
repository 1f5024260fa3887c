"""The multi-hop analytic model and its metrics (paper §III-B).

:class:`MultiHopModel` covers the stationary-update regime: state lives
forever at the sender (``mu_r -> 0``) and Poisson updates at rate
``lambda_u`` must propagate down a homogeneous chain of ``N`` hops.
Metrics:

* ``inconsistency_ratio`` — eq. (12): ``I = 1 - pi_(N,0)``;
* ``hop_inconsistency(h)`` — Fig. 17's per-hop view: hop ``h`` is
  inconsistent whenever fewer than ``h`` hops are consistent (and
  during HS recovery);
* ``message_rate`` — per-link transmissions per second (eqs. 13-17).
"""

from __future__ import annotations

import dataclasses

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.messages import multihop_message_components
from repro.core.multihop.states import RECOVERY, HopState, multihop_state_space
from repro.core.multihop.transitions import (
    chain_rate_row,
    chain_rates,
    multihop_protocol,
    supported_protocols,
)
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = ["MultiHopModel", "MultiHopSolution"]


@dataclasses.dataclass(frozen=True)
class MultiHopSolution:
    """Solved metrics of one protocol on one multi-hop configuration."""

    protocol: Protocol
    params: MultiHopParameters
    stationary: dict[object, float]
    message_breakdown: dict[str, float]

    @property
    def inconsistency_ratio(self) -> float:
        """``I = 1 - pi_(N,0)`` — any hop inconsistent (eq. 12)."""
        return 1.0 - self.stationary.get(HopState(self.params.hops, False), 0.0)

    @property
    def message_rate(self) -> float:
        """Total per-link transmissions per second."""
        return sum(self.message_breakdown.values())

    def hop_inconsistency(self, hop: int) -> float:
        """Fraction of time hop ``hop`` (1-based) is inconsistent (Fig. 17).

        Hop ``h`` is inconsistent in state ``(k, s)`` iff ``k < h``; the
        HS recovery state counts as inconsistent for every hop.
        """
        if not 1 <= hop <= self.params.hops:
            raise ValueError(f"hop must be in [1, {self.params.hops}], got {hop}")
        total = 0.0
        for state, probability in self.stationary.items():
            if state is RECOVERY:
                total += probability
            elif isinstance(state, HopState) and state.consistent_hops < hop:
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


class MultiHopModel:
    """The Fig. 15/16 chain for SS, SS+RT or HS over ``N`` hops.

    The constructor only validates; the chain is built on demand from
    the :func:`~repro.core.multihop.transitions.chain_transition_specs`
    list and the point's :meth:`rate_row`.
    """

    def __init__(self, protocol: Protocol, params: MultiHopParameters) -> None:
        self.protocol = multihop_protocol(protocol)
        self.params = params

    def rate_row(self) -> list[float]:
        """The point's rates, in the chain's slot layout."""
        return chain_rate_row(self.protocol, self.params)

    def transition_rates(self) -> dict[tuple[object, object], float]:
        """The chain's transition rates."""
        return chain_rates(self.protocol, self.params.hops, self.rate_row())

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent multi-hop CTMC."""
        states = multihop_state_space(self.params.hops, with_recovery=self.protocol is Protocol.HS)
        return ContinuousTimeMarkovChain(states, self.transition_rates())

    def message_breakdown(self, stationary: dict[object, float]) -> dict[str, float]:
        """Per-kind per-link transmission rates under ``stationary``."""
        return multihop_message_components(self.protocol, self.params, stationary)

    def solution_from_stationary(self, stationary: dict[object, float]) -> MultiHopSolution:
        """Wrap a solved stationary distribution with its message rates."""
        return MultiHopSolution(
            protocol=self.protocol,
            params=self.params,
            stationary=stationary,
            message_breakdown=self.message_breakdown(stationary),
        )

    def solve(self) -> MultiHopSolution:
        """Compute the stationary distribution and message rates."""
        return self.solution_from_stationary(self.chain().stationary_distribution())


def solve_all_multihop(
    params: MultiHopParameters,
    protocols: tuple[Protocol, ...] | None = None,
) -> dict[Protocol, MultiHopSolution]:
    """Solve every multi-hop protocol under one parameter set."""
    chosen = protocols if protocols is not None else supported_protocols()
    return {protocol: MultiHopModel(protocol, params).solve() for protocol in chosen}
