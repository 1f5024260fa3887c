"""Heterogeneous multi-hop chains — an extension beyond the paper.

Paper §III-B assumes homogeneous hops ("identical channel loss rate and
mean channel delay").  Real paths are not homogeneous: a reservation
often crosses one congested peering link among many clean ones.  This
module generalizes the multi-hop Markov model to per-hop loss and delay
vectors, reusing the same state space (the chain's structure does not
depend on homogeneity — only its rates do).

The homogeneous model is recovered exactly when every hop is identical
(tested), which also serves as a cross-check of both implementations.

The chain keeps the homogeneous model's states and
:func:`~repro.core.multihop.transitions.chain_transition_specs` list;
only the rate row differs.  :func:`heterogeneous_rate_row` fills it from
pure profile functions (:func:`reach_profile`,
:func:`recovery_rate_profile`, :func:`first_timeout_profile`), read alike
by :class:`HeterogeneousMultiHopModel` (a :class:`MultiHopModel` that
overrides only the rate row and the message accounting,
:func:`heterogeneous_message_components`) and by the compiled
``MultiHopTemplate``.  All profiles are built on a single prefix-product
pass over the hop vector, so a rate row costs O(n).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro.core.multihop.model import MultiHopModel
from repro.core.multihop.states import RECOVERY, HopState
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "HeterogeneousHop",
    "HeterogeneousMultiHopModel",
    "expected_link_crossings_heterogeneous",
    "first_timeout_profile",
    "heterogeneous_message_components",
    "heterogeneous_rate_row",
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
    return sum(reach[k] for k in range(len(hops)))


def heterogeneous_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    hops: Sequence[HeterogeneousHop],
    stationary: Mapping[object, float],
    reach: Sequence[float] | None = None,
) -> dict[str, float]:
    """Per-kind per-link-transmission rates under per-hop loss/delay.

    The heterogeneous counterpart of
    :func:`repro.core.multihop.messages.multihop_message_components`,
    shared between :class:`HeterogeneousMultiHopModel` and the
    compiled-template fast path.
    """
    if reach is None:
        reach = reach_profile(hops)
    n = params.hops
    retransmit = 1.0 / params.retransmission_interval
    fast_rate = 0.0
    slow_total = 0.0
    ack_rate = 0.0
    for state, probability in stationary.items():
        if not isinstance(state, HopState):
            continue
        if not state.slow and state.consistent_hops < n:
            hop = hops[state.consistent_hops]
            fast_rate += probability / hop.delay
            ack_rate += probability * (1.0 - hop.loss_rate) / hop.delay
        elif state.slow:
            slow_total += probability
            hop = hops[min(state.consistent_hops, n - 1)]
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
        mean_delay = sum(h.delay for h in hops) / n
        breakdown["recovery_traffic"] = stationary.get(RECOVERY, 0.0) / mean_delay
    return breakdown


def heterogeneous_rate_row(
    protocol: Protocol,
    params: MultiHopParameters,
    hops: Sequence[HeterogeneousHop],
    reach: Sequence[float],
) -> list[float]:
    """One per-hop point's rates, in the
    :func:`~repro.core.multihop.transitions.chain_slots` layout."""
    n = params.hops
    row = [params.update_rate]
    row += [(1.0 - hop.loss_rate) / hop.delay for hop in hops]
    row += [hop.loss_rate / hop.delay for hop in hops]
    row += recovery_rate_profile(protocol, params, hops, reach)
    if protocol is Protocol.HS:
        mean_delay = sum(h.delay for h in hops) / n
        row += [n * params.external_false_signal_rate, 1.0 / (2.0 * n * mean_delay)]
    else:
        row += first_timeout_profile(params, reach)
    return row


class HeterogeneousMultiHopModel(MultiHopModel):
    """The §III-B chain with per-hop loss/delay (SS, SS+RT, HS).

    Same states and spec list as :class:`MultiHopModel`; only the rate
    row and the message accounting read the hop vector.
    """

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        hops: Sequence[HeterogeneousHop],
    ) -> None:
        protocol = Protocol(protocol)
        if protocol not in Protocol.multihop_family():
            raise ValueError(f"{protocol.value} is not part of the multi-hop analysis")
        if len(hops) != params.hops:
            raise ValueError(
                f"hop vector length {len(hops)} != params.hops {params.hops}"
            )
        super().__init__(protocol, params)
        self.hops = tuple(hops)

    def reach_probability(self, hop_count: int) -> float:
        """Probability an end-to-end message survives the first ``hop_count`` links."""
        if not 0 <= hop_count <= len(self.hops):
            raise ValueError(f"hop_count out of range: {hop_count}")
        return reach_profile(self.hops)[hop_count]

    def rate_row(self) -> list[float]:
        """The point's rates, in the chain's slot layout."""
        return heterogeneous_rate_row(
            self.protocol, self.params, self.hops, reach_profile(self.hops)
        )

    def message_breakdown(self, stationary: dict[object, float]) -> dict[str, float]:
        """Per-kind per-link transmission rates under ``stationary``."""
        return heterogeneous_message_components(
            self.protocol, self.params, self.hops, stationary
        )
