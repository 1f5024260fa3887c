"""Multi-hop signaling message rates (paper eqs. 13-17).

Multi-hop overhead counts **per-link transmissions**: a message that
crosses ``k`` links costs ``k``.  An end-to-end message over ``N``
lossy links crosses

``E_N = sum_{k=1..N} (1-p)^(k-1) = (1 - (1-p)^N) / p``

links in expectation (it is transmitted on link ``k`` iff it survived
links ``1..k-1``); the paper's eqs. (14)-(15) algebraically reduce to
this.  Components:

* fast-path trigger propagation: rate ``1/Delta`` in every fast-path
  state ``(i,0)`` with ``i < N`` (one link-crossing per hop advance);
* refreshes (SS, SS+RT): generated at ``1/R`` regardless of chain
  state, each costing ``E_N`` link-crossings;
* hop-local retransmissions (SS+RT, HS): rate ``1/K`` in slow-path
  states, one link each, plus one hop-local ACK per successful reliable
  delivery;
* HS recovery traffic: one receiver->everyone notification sweep plus
  the re-trigger — approximately ``2N`` link-crossings per recovery.

On a tree several frontier edges can carry in-flight messages at once,
and a refresh is *flooded* down every branch, so its link crossings sum
reach probabilities over all edges (:func:`tree_expected_link_crossings`).
:func:`tree_message_components` reads the mean fast and slow frontier
edge counts off a solved row and its state space, raw tree or orbits;
on a chain the counts are 0 or 1 and the sums are the paper's.
"""

from __future__ import annotations

from repro.core.markov import StateSpace, ordered_sum
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "expected_link_crossings",
    "link_message_components",
    "tree_expected_link_crossings",
    "tree_message_components",
]


def expected_link_crossings(params: MultiHopParameters) -> float:
    """``E_N`` — mean links crossed by one end-to-end message (eqs. 14-15)."""
    p = params.loss_rate
    n = params.hops
    if p == 0.0:
        return float(n)
    return (1.0 - (1.0 - p) ** n) / p


def link_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    fast_edges: float,
    slow_edges: float,
    recovery: float,
    crossings: float,
) -> dict[str, float]:
    """The eqs. 13-17 components from a chain's or tree's frontier counts.

    ``fast_edges`` and ``slow_edges`` are the mean numbers of in-flight
    and waiting frontier edges, ``recovery`` the HS recovery mass and
    ``crossings`` the mean links one end-to-end message crosses.
    """
    protocol = multihop_protocol(protocol)
    success = 1.0 - params.loss_rate
    delta = params.delay
    retransmit = 1.0 / params.retransmission_interval
    components = {
        "trigger_hops": fast_edges / delta,
        "refresh_hops": 0.0,
        "retransmissions": 0.0,
        "acks": 0.0,
        "recovery_traffic": 0.0,
    }
    if protocol.uses_refreshes:
        components["refresh_hops"] = crossings / params.refresh_interval
    if protocol.reliable_triggers:
        components["retransmissions"] = retransmit * slow_edges
        components["acks"] = (
            success * fast_edges / delta + success * retransmit * slow_edges
        )
    if protocol is Protocol.HS:
        # Leaving RECOVERY costs ~2E link-crossings for E links (the
        # notification sweep plus the sender's reinstallation trigger):
        # rate-out * 2E = pi_F * (1/(2*E*Delta)) * 2E = pi_F / Delta.
        components["recovery_traffic"] = recovery / delta
    return components


def tree_expected_link_crossings(
    topology: Topology, params: MultiHopParameters
) -> float:
    """Mean links crossed by one flooded end-to-end message.

    An edge into a node at depth ``d`` carries the message iff it
    survived the ``d - 1`` ancestor edges:
    ``E = sum_v (1-p)^(depth(v) - 1)``.  On a chain this is the
    geometric series of eqs. 14-15, so the chain's closed form is used
    there.
    """
    if topology.is_chain:
        return expected_link_crossings(params)
    success = 1.0 - params.loss_rate
    return ordered_sum(
        success ** (topology.depth(node) - 1) for node in range(1, topology.num_nodes)
    )


def tree_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    row,
    space: StateSpace,
) -> dict[str, float]:
    """Per-kind per-link-transmission rates of a solved ``row`` over a
    raw tree or orbit ``space``."""
    # Mean in-flight (fast frontier) and waiting (slow frontier) edge
    # counts, added in state order.  On a chain both counts are 0/1, so
    # the sums are the paper's filtered probability sums.
    fast_edges = ordered_sum(p * fast for p, fast in zip(row, space.fast) if fast)
    slow_edges = ordered_sum(p * slow for p, slow in zip(row, space.slow) if slow)
    return link_message_components(
        protocol,
        params,
        fast_edges,
        slow_edges,
        0.0 if space.recovery is None else row[space.recovery],
        tree_expected_link_crossings(topology, params),
    )
