"""Per-hop rates of the multi-hop chains (paper §III-B.1, eqs. 9-11).

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

The chain is the unary tree ``Topology.chain(N)``: its states and
transitions are the tree model's
(:mod:`repro.core.multihop.tree_transitions`), which prices its
depth-tagged edges with the helpers here.  :func:`multihop_protocol` is
the one check that a protocol belongs to the multi-hop analysis.
"""

from __future__ import annotations

from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "first_timeout_rate",
    "multihop_protocol",
    "slow_path_recovery_rate",
    "supported_protocols",
]


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
    return slow_path_recovery_rate(multihop_protocol(protocol), params, target_hops)


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
