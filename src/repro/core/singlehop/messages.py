"""Stationary signaling message rates (paper eqs. 3-7).

Each component is the stationary rate at which one kind of message is
transmitted, derived from the recurrent chain's stationary distribution.
Components:

* ``triggers`` — one explicit trigger per visit to a fast-path state
  (eq. 3 collapses to ``(pi_(1,0)1 + pi_IC1)/Delta``).
* ``refreshes`` — rate ``1/R`` while in ``(1,0)_2``, ``C``, ``IC_2``
  (eq. 5).
* ``removals`` — one explicit removal per visit to ``(0,1)_1``
  (eq. 4 collapses to ``pi_(0,1)1/Delta``).
* ``trigger_retransmissions`` / ``trigger_acks`` /
  ``removal_notifications`` — the reliable-trigger machinery (eq. 6):
  retransmissions at ``1/K`` in slow-path states, one ACK per
  successfully delivered trigger or retransmission, and one
  notification per false removal (the receiver tells the sender its
  state vanished).
* ``removal_retransmissions`` / ``removal_acks`` — the reliable-removal
  machinery (eq. 7).

The published equations (6)-(7) are glyph-garbled in the source PDF;
the ACK terms here are reconstructed mechanistically — one ACK per
successful delivery of a reliably-transmitted message — which matches
the prose description of the protocols.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.markov import StateSpace
from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import effective_false_removal_rate

__all__ = ["message_rate_components"]


def message_rate_components(
    protocol: Protocol,
    params: SignalingParameters,
    row: Sequence[float],
    space: StateSpace,
) -> dict[str, float]:
    """Per-kind stationary message rates for ``protocol``.

    ``row`` is the distribution of the *recurrent* chain (the absorbing
    state merged into the start state) over ``space``.  Components that
    the protocol does not use are reported as 0.0, so the breakdown
    always has the same keys.
    """
    # The equations name their states; a state outside the chain has 0.
    pi = dict.fromkeys(S, 0.0)
    pi.update(zip(space.states, row))
    success = 1.0 - params.loss_rate
    delta = params.delay
    refresh = 1.0 / params.refresh_interval
    retransmit = 1.0 / params.retransmission_interval
    lam_f = effective_false_removal_rate(protocol, params)

    fast_occupancy = pi[S.S10_FAST] + pi[S.IC_FAST]
    slow_occupancy = pi[S.S10_SLOW] + pi[S.IC_SLOW]

    components = {
        "triggers": fast_occupancy / delta,
        "refreshes": 0.0,
        "removals": 0.0,
        "trigger_retransmissions": 0.0,
        "trigger_acks": 0.0,
        "removal_notifications": 0.0,
        "removal_retransmissions": 0.0,
        "removal_acks": 0.0,
    }
    if protocol.uses_refreshes:
        components["refreshes"] = refresh * (slow_occupancy + pi[S.CONSISTENT])
    if protocol.explicit_removal:
        components["removals"] = pi[S.S01_FAST] / delta
    if protocol.reliable_triggers:
        components["trigger_retransmissions"] = retransmit * slow_occupancy
        components["trigger_acks"] = (
            success * fast_occupancy / delta + success * retransmit * slow_occupancy
        )
    if protocol.removal_notification:
        components["removal_notifications"] = lam_f * (pi[S.CONSISTENT] + pi[S.IC_SLOW])
    if protocol.reliable_removal:
        components["removal_retransmissions"] = retransmit * pi[S.S01_SLOW]
        components["removal_acks"] = (
            success * pi[S.S01_FAST] / delta + success * retransmit * pi[S.S01_SLOW]
        )
    return components
