"""Transition structure and rates of the single-hop chain (paper Table I).

Fig. 3 is written once, as the :func:`transition_specs` list of
``(origin, destination, tag)`` triples: the protocol-independent rows
(setup/update fast paths, update and removal events, false removal)
plus the protocol-specific rows of Table I.  :func:`transition_tag_rates`
gives each tag's rate at one parameter point.  The reference rate dict
(:func:`build_transition_rates`, which feeds
:class:`repro.core.markov.ContinuousTimeMarkovChain`), the compiled
``SingleHopTemplate`` and the Gilbert-Elliott product lift all read
these two, so they agree edge for edge, in the same order.
"""

from __future__ import annotations

import functools

from repro.core.markov import StateSpace, spec_rates
from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.states import SingleHopState as S

__all__ = [
    "build_transition_rates",
    "effective_false_removal_rate",
    "recurrent_space",
    "slow_path_recovery_rate",
    "state_space",
    "transition_specs",
    "transition_tag_rates",
]

Rates = dict[tuple[S, S], float]


def effective_false_removal_rate(protocol: Protocol, params: SignalingParameters) -> float:
    """``lambda_f`` for the protocol.

    Soft-state protocols lose state when every refresh in a timeout
    window is lost: ``p_l^(T/R) / T``.  Hard state has no timeout; its
    false removals come from the external failure detector firing
    spuriously at rate ``lambda_x``.
    """
    if protocol is Protocol.HS:
        return params.external_false_signal_rate
    return params.false_removal_rate


def state_space(protocol: Protocol) -> tuple[S, ...]:
    """States used by the protocol's chain.

    ``(0,1)_2`` exists only when an explicit removal message can be
    lost, i.e. for SS+ER, SS+RTR and HS (Fig. 3 caption).
    """
    states = [
        S.S10_FAST,
        S.S10_SLOW,
        S.CONSISTENT,
        S.IC_FAST,
        S.IC_SLOW,
        S.S01_FAST,
    ]
    if protocol.explicit_removal:
        states.append(S.S01_SLOW)
    states.append(S.ABSORBED)
    return tuple(states)


@functools.lru_cache(maxsize=None)
def recurrent_space(protocol: Protocol) -> StateSpace:
    """The recurrent chain's states (``(0,0)`` merged into the start
    state, so dropped) and the position of ``C``."""
    states = state_space(protocol)[:-1]
    return StateSpace(states, full=states.index(S.CONSISTENT))


def slow_path_recovery_rate(protocol: Protocol, params: SignalingParameters) -> float:
    """Rate of ``(1,0)_2 -> C`` and ``IC_2 -> C`` (Table I row 3)."""
    success = 1.0 - params.loss_rate
    refresh = 1.0 / params.refresh_interval
    retransmit = 1.0 / params.retransmission_interval
    if protocol in (Protocol.SS, Protocol.SS_ER):
        return success * refresh
    if protocol in (Protocol.SS_RT, Protocol.SS_RTR):
        return success * (refresh + retransmit)
    return success * retransmit  # HS: retransmission only


@functools.lru_cache(maxsize=None)
def transition_specs(protocol: Protocol) -> tuple[tuple[S, S, str], ...]:
    """Fig. 3 as ``(origin, destination, tag)`` triples: Table I's rows
    in build order, each tag one rate of :func:`transition_tag_rates`."""
    specs = [
        # Setup/update trigger in flight: delivered or lost after ~Delta.
        (S.S10_FAST, S.CONSISTENT, "fast_ok"),
        (S.S10_FAST, S.S10_SLOW, "fast_lost"),
        (S.IC_FAST, S.CONSISTENT, "fast_ok"),
        (S.IC_FAST, S.IC_SLOW, "fast_lost"),
        # Slow-path recovery via refresh and/or retransmission.
        (S.S10_SLOW, S.CONSISTENT, "recovery"),
        (S.IC_SLOW, S.CONSISTENT, "recovery"),
        # State updates (events are serialized: never while in flight).
        (S.CONSISTENT, S.IC_FAST, "update"),
        (S.S10_SLOW, S.S10_FAST, "update"),
        (S.IC_SLOW, S.IC_FAST, "update"),
        # Sender-side state removal.
        (S.S10_SLOW, S.ABSORBED, "removal"),
        (S.CONSISTENT, S.S01_FAST, "removal"),
        (S.IC_SLOW, S.S01_FAST, "removal"),
        # False removal at the receiver sends us back to slow setup.
        (S.CONSISTENT, S.S10_SLOW, "false_removal"),
        (S.IC_SLOW, S.S10_SLOW, "false_removal"),
    ]
    # Rows 4-6 of Table I: how receiver-side orphaned state goes away.
    if not protocol.explicit_removal:
        # No explicit removal: only the state-timeout clears the orphan.
        specs.append((S.S01_FAST, S.ABSORBED, "timeout"))
        return tuple(specs)
    specs.append((S.S01_FAST, S.ABSORBED, "fast_ok"))
    specs.append((S.S01_FAST, S.S01_SLOW, "fast_lost"))
    if protocol is Protocol.SS_ER:
        specs.append((S.S01_SLOW, S.ABSORBED, "timeout"))
    elif protocol is Protocol.SS_RTR:
        specs.append((S.S01_SLOW, S.ABSORBED, "timeout_retx"))
    else:  # HS: retransmission of the removal message only
        specs.append((S.S01_SLOW, S.ABSORBED, "removal_retx"))
    return tuple(specs)


def transition_tag_rates(protocol: Protocol, params: SignalingParameters) -> dict[str, float]:
    """The rate of each :func:`transition_specs` tag under ``params``."""
    p = params.loss_rate
    success = 1.0 - p
    timeout = 1.0 / params.timeout_interval
    retransmit = 1.0 / params.retransmission_interval
    return {
        "fast_ok": success / params.delay,
        "fast_lost": p / params.delay,
        "update": params.update_rate,
        "removal": params.removal_rate,
        "recovery": slow_path_recovery_rate(protocol, params),
        "false_removal": effective_false_removal_rate(protocol, params),
        "timeout": timeout,
        "timeout_retx": timeout + success * retransmit,
        "removal_retx": success * retransmit,
    }


def build_transition_rates(protocol: Protocol, params: SignalingParameters) -> Rates:
    """All transition rates of Fig. 3 for ``protocol`` under ``params``."""
    return spec_rates(transition_specs(protocol), transition_tag_rates(protocol, params))
