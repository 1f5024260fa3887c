"""Heterogeneous multi-hop chains — an extension beyond the paper.

Paper §III-B assumes homogeneous hops ("identical channel loss rate and
mean channel delay").  Real paths are not homogeneous: a reservation
often crosses one congested peering link among many clean ones.  This
module generalizes the multi-hop Markov model to per-hop loss and delay
vectors, reusing the same state space (the chain's structure does not
depend on homogeneity — only its rates do).

A heterogeneous chain is the tree model on ``Topology.chain(N)`` with a
link profile, one :class:`HeterogeneousHop` per edge
(``TreeModel(..., links=hops)``).  Its depth-tagged spec list is the
homogeneous chain's; :func:`heterogeneous_tag_rates` prices each tag
from pure profile functions (:func:`reach_profile`,
:func:`recovery_rate_profile`, :func:`first_timeout_profile`), read
alike by the reference model and the compiled template, and
:func:`heterogeneous_message_components` does the message accounting.
All profiles are built on a single prefix-product pass over the hop
vector, so a point's rates cost O(n).  The homogeneous model is
recovered when every hop is identical, to tolerance (the profiles
accumulate per hop).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from repro.core.markov import StateSpace, ordered_sum
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "HeterogeneousHop",
    "expected_link_crossings_heterogeneous",
    "first_timeout_profile",
    "heterogeneous_message_components",
    "heterogeneous_tag_rates",
    "hops_from_parameters",
    "reach_profile",
    "recovery_rate_profile",
]


@dataclasses.dataclass(frozen=True)
class HeterogeneousHop:
    """Loss and delay of one link in the chain."""

    loss_rate: float
    delay: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.delay <= 0:
            raise ValueError(f"delay must be positive, got {self.delay}")


def hops_from_parameters(params: MultiHopParameters) -> tuple[HeterogeneousHop, ...]:
    """The homogeneous hop vector implied by ``params``."""
    return tuple(
        HeterogeneousHop(params.loss_rate, params.delay) for _ in range(params.hops)
    )


def reach_profile(hops: Sequence[HeterogeneousHop]) -> tuple[float, ...]:
    """Prefix products ``reach[k] = P(message survives the first k links)``.

    ``reach[0] = 1`` and ``reach[n]`` is the end-to-end delivery
    probability.  One O(n) pass replaces the per-call O(n)
    ``math.prod`` the rate builders previously recomputed per edge.
    """
    profile = [1.0]
    survive = 1.0
    for hop in hops:
        survive *= 1.0 - hop.loss_rate
        profile.append(survive)
    return tuple(profile)


def recovery_rate_profile(
    protocol: Protocol,
    params: MultiHopParameters,
    hops: Sequence[HeterogeneousHop],
    reach: Sequence[float],
) -> tuple[float, ...]:
    """Entry ``i``: the rate of ``(i,1) -> (i+1,0)`` (slow-path repair).

    A refresh must survive hops ``1..i+1`` end to end; a hop-local
    retransmission must survive only the broken hop ``i+1``.
    """
    rates = []
    for i, hop in enumerate(hops):
        refresh = reach[i + 1] / params.refresh_interval
        retransmit = (1.0 - hop.loss_rate) / params.retransmission_interval
        if protocol is Protocol.SS:
            rates.append(refresh)
        elif protocol is Protocol.SS_RT:
            rates.append(refresh + retransmit)
        else:  # HS
            rates.append(retransmit)
    return tuple(rates)


def first_timeout_profile(
    params: MultiHopParameters, reach: Sequence[float]
) -> tuple[float, ...]:
    """Entry ``j``: rate of the first state timeout leaving ``j`` hops.

    Eq. 9 with per-hop reach probabilities: the first expiry happens at
    hop ``j+1`` when every refresh of a timeout window misses hop
    ``j+1`` but not hop ``j``.
    """
    exponent = params.timeout_interval / params.refresh_interval
    rates = []
    for j in range(len(reach) - 1):
        probability = (1.0 - reach[j + 1]) ** exponent - (1.0 - reach[j]) ** exponent
        rates.append(max(probability, 0.0) / params.timeout_interval)
    return tuple(rates)


def expected_link_crossings_heterogeneous(
    hops: Sequence[HeterogeneousHop], reach: Sequence[float] | None = None
) -> float:
    """Mean links crossed by one end-to-end message (heterogeneous eq. 14)."""
    if reach is None:
        reach = reach_profile(hops)
    return ordered_sum(reach[: len(hops)])


def heterogeneous_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    hops: Sequence[HeterogeneousHop],
    row,
    space: StateSpace,
    reach: Sequence[float] | None = None,
) -> dict[str, float]:
    """Per-kind per-link-transmission rates under per-hop loss/delay.

    The heterogeneous counterpart of
    :func:`repro.core.multihop.messages.tree_message_components` on
    a chain's solved ``row``: each state's frontier node ``v`` (the one
    past its ``k`` consistent nodes, ``v = k + 1``) sends over link
    ``hops[v - 1]``.
    """
    if reach is None:
        reach = reach_profile(hops)
    retransmit = 1.0 / params.retransmission_interval
    fast_rate = 0.0
    slow_total = 0.0
    ack_rate = 0.0
    for probability, fast, slow, consistent in zip(
        row, space.fast, space.slow, space.consistent
    ):
        if fast:
            hop = hops[consistent.bit_count()]
            fast_rate += probability / hop.delay
            ack_rate += probability * (1.0 - hop.loss_rate) / hop.delay
        elif slow:
            slow_total += probability
            hop = hops[consistent.bit_count()]
            ack_rate += probability * (1.0 - hop.loss_rate) * retransmit
    breakdown = {
        "trigger_hops": fast_rate,
        "refresh_hops": 0.0,
        "retransmissions": 0.0,
        "acks": 0.0,
        "recovery_traffic": 0.0,
    }
    if protocol.uses_refreshes:
        breakdown["refresh_hops"] = (
            expected_link_crossings_heterogeneous(hops, reach) / params.refresh_interval
        )
    if protocol.reliable_triggers:
        breakdown["retransmissions"] = retransmit * slow_total
        breakdown["acks"] = ack_rate
    if protocol is Protocol.HS:
        mean_delay = ordered_sum(h.delay for h in hops) / params.hops
        breakdown["recovery_traffic"] = row[space.recovery] / mean_delay
    return breakdown


def heterogeneous_tag_rates(
    protocol: Protocol,
    params: MultiHopParameters,
    hops: Sequence[HeterogeneousHop],
    tags,
) -> list[float]:
    """The rate of each of the chain's ``tags`` under per-hop loss/delay.

    A per-edge tag ``(kind, depth)`` names hop ``depth``; the HS false
    signals fire at ``N * lambda_x`` and the recovery exit takes
    ``2N`` mean hop delays.
    """
    n = params.hops
    reach = reach_profile(hops)
    per_hop = {
        "advance": [(1.0 - hop.loss_rate) / hop.delay for hop in hops],
        "lose": [hop.loss_rate / hop.delay for hop in hops],
        "recover": recovery_rate_profile(protocol, params, hops, reach),
    }
    single = {"update": params.update_rate}
    if protocol is Protocol.HS:
        mean_delay = ordered_sum(h.delay for h in hops) / n
        single["to_recovery"] = n * params.external_false_signal_rate
        single["from_recovery"] = 1.0 / (2.0 * n * mean_delay)
    else:
        per_hop["timeout"] = first_timeout_profile(params, reach)
    return [single[tag[0]] if len(tag) == 1 else per_hop[tag[0]][tag[1] - 1] for tag in tags]
