"""Transition rates of the multi-hop chains (paper §III-B.1, eqs. 9-11).

The three modeled protocols share the fast-path/update structure and
differ in slow-path recovery and in how state is (falsely) removed:

* **SS** — recovery only by end-to-end refreshes, which must cross all
  ``i`` hops (rate ``(1-p)^i / R``); state-timeout cascades model false
  removal (eq. 9).
* **SS+RT** — adds hop-by-hop reliable triggers: a hop-local
  retransmission can also repair the slow path (eq. 10).
* **HS** — retransmissions only (eq. 11); no timeouts.  False removals
  come from each receiver's external failure detector (rate
  ``lambda_x`` each); the chain then visits the ``RECOVERY`` state
  until the sender learns of the removal and re-triggers.

The chain is written once, as the :func:`chain_transition_specs` list of
state-index triples whose third entry is a slot of the point's rate row.
:func:`chain_rate_row` fills that row for homogeneous hops (and
:func:`~repro.core.multihop.heterogeneous.heterogeneous_rate_row` for
per-hop vectors); the reference rate dict (:func:`chain_rates`), the
compiled ``MultiHopTemplate``, its structured O(hops) kernel and the
Gilbert-Elliott product lift all read the same list and rows.
"""

from __future__ import annotations

from repro.core.markov import spec_rates
from repro.core.multihop.states import multihop_state_space
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "build_multihop_rates",
    "chain_rate_row",
    "chain_rates",
    "chain_slots",
    "chain_transition_specs",
    "first_timeout_rate",
    "multihop_protocol",
    "slow_path_recovery_rate",
    "supported_protocols",
]

Rates = dict[tuple[object, object], float]


def supported_protocols() -> tuple[Protocol, ...]:
    """Protocols covered by the multi-hop analysis (§III-B)."""
    return Protocol.multihop_family()


def slow_path_recovery_rate(
    protocol: Protocol,
    params: MultiHopParameters,
    target_hops: int,
) -> float:
    """Rate of ``(i-1, 1) -> (i, 0)`` where ``i = target_hops``.

    A refresh repairs the slow path only if it survives all ``i`` hops
    from the sender; a hop-by-hop retransmission must survive just the
    one broken hop.
    """
    if target_hops < 1:
        raise ValueError(f"target_hops must be >= 1, got {target_hops}")
    success = 1.0 - params.loss_rate
    refresh_term = (success**target_hops) / params.refresh_interval
    retransmit_term = success / params.retransmission_interval
    if protocol is Protocol.SS:
        return refresh_term
    if protocol is Protocol.SS_RT:
        return refresh_term + retransmit_term  # eq. 10
    if protocol is Protocol.HS:
        return retransmit_term  # eq. 11
    raise ValueError(f"{protocol} is not part of the multi-hop analysis")


def first_timeout_rate(params: MultiHopParameters, surviving_hops: int) -> float:
    """Rate of the *first* state timeout occurring at hop ``j+1`` (eq. 9).

    ``surviving_hops`` is ``j`` — the number of hops left consistent
    after the cascade (the timeout at hop ``j+1`` starves every hop
    behind it of refreshes too).  A timeout at hop ``h`` needs all
    ``T/R`` refreshes of a timeout window to miss hop ``h``
    (each arrives with probability ``(1-p)^h``), so

    ``rate(j) = [ (1 - (1-p)^(j+1))^(T/R) - (1 - (1-p)^j)^(T/R) ] / T``.
    """
    if surviving_hops < 0:
        raise ValueError(f"surviving_hops must be >= 0, got {surviving_hops}")
    p = params.loss_rate
    if p == 0.0:
        return 0.0
    exponent = params.timeout_interval / params.refresh_interval
    success = 1.0 - p
    miss_at = lambda hop: 1.0 - success**hop  # noqa: E731 - tiny local alias
    probability = miss_at(surviving_hops + 1) ** exponent - miss_at(surviving_hops) ** exponent
    return max(probability, 0.0) / params.timeout_interval


def multihop_protocol(protocol: Protocol) -> Protocol:
    """``protocol`` as a :class:`Protocol`, rejected unless §III-B models it."""
    protocol = Protocol(protocol)
    if protocol not in supported_protocols():
        raise ValueError(
            f"{protocol.value} is not modeled in the multi-hop analysis; "
            f"use one of {[p.value for p in supported_protocols()]}"
        )
    return protocol


def chain_slots(hops: int) -> tuple[int, int, int, int, int]:
    """Where each block of a chain rate row starts.

    The row is ``[update, advance(n), lose(n), recover(n), extra]``:
    ``extra`` holds the ``n`` first-timeout rates of the soft-state
    protocols, or hard state's false-signal and recovery-exit rates.
    """
    return 0, 1, 1 + hops, 1 + 2 * hops, 1 + 3 * hops


def chain_transition_specs(protocol: Protocol, hops: int) -> list[tuple[int, int, int]]:
    """The Fig. 15/16 edges as ``(origin, destination, slot)`` index triples.

    States are numbered in :func:`multihop_state_space` order (fast
    ``(i,0)`` at ``i``, slow ``(i,1)`` at ``hops + 1 + i``, hard state's
    ``RECOVERY`` last); ``slot`` indexes the rate row of
    :func:`chain_slots`.  The order is the reference build order: updates,
    then each hop's fast and slow paths, then the timeout cascades or
    hard state's false signals and recovery exit.
    """
    _, advance, lose, recover, extra = chain_slots(hops)
    slow = hops + 1
    count = 2 * hops + 1 + (protocol is Protocol.HS)
    # Sender-side updates restart installation from hop 0 (all protocols).
    specs = [(state, 0, 0) for state in range(1, count)]
    for i in range(hops):
        # Fast path: the in-flight message crosses hop i+1 or is lost there;
        # slow path: refresh/retransmission repairs hop i+1.
        specs += [(i, i + 1, advance + i), (i, slow + i, lose + i), (slow + i, i + 1, recover + i)]
    if protocol is not Protocol.HS:
        # State-timeout cascades: first expiry at hop j+1 leaves j hops.
        for state in range(count):
            consistent = state if state < slow else state - slow
            specs += [(state, slow + j, extra + j) for j in range(consistent)]
    else:
        # External false signals: any of the N receivers may fire; the
        # system recovers once the sender is notified and re-triggers.
        specs += [(state, count - 1, extra) for state in range(count - 1)]
        specs.append((count - 1, 0, extra + 1))
    return specs


def chain_rate_row(protocol: Protocol, params: MultiHopParameters) -> list[float]:
    """One homogeneous point's rates, in the :func:`chain_slots` layout."""
    n = params.hops
    success = 1.0 - params.loss_rate
    row = [params.update_rate]
    row += [success / params.delay] * n
    row += [params.loss_rate / params.delay] * n
    row += [slow_path_recovery_rate(protocol, params, i + 1) for i in range(n)]
    if protocol is Protocol.HS:
        row += [n * params.external_false_signal_rate, 1.0 / (2.0 * n * params.delay)]
    else:
        row += [first_timeout_rate(params, j) for j in range(n)]
    return row


def chain_rates(protocol: Protocol, hops: int, row: list[float]) -> Rates:
    """The rate dict of the chain's spec list under one rate ``row``."""
    states = multihop_state_space(hops, with_recovery=protocol is Protocol.HS)
    return spec_rates(
        (
            (states[origin], states[destination], slot)
            for origin, destination, slot in chain_transition_specs(protocol, hops)
        ),
        row,
    )


def build_multihop_rates(protocol: Protocol, params: MultiHopParameters) -> Rates:
    """All transition rates of the Fig. 15/16 chain for ``protocol``."""
    if protocol not in supported_protocols():
        raise ValueError(f"{protocol} is not part of the multi-hop analysis")
    return chain_rates(protocol, params.hops, chain_rate_row(protocol, params))
