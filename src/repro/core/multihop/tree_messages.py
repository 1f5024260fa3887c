"""Tree signaling message rates — the eqs. 13-17 accounting on a tree.

Overhead still counts **per-link transmissions**; the tree differences
are that several frontier edges can carry in-flight messages at once
and that a refresh is *flooded*: forwarded down every branch, so its
expected link-crossing count sums reach probabilities over all edges
rather than along one path.

On a unary chain every expression collapses to the chain formula and
reproduces :func:`~repro.core.multihop.messages.multihop_message_components`
bit for bit: the per-state fast/slow frontier counts are exactly 0 or
1, and :func:`tree_expected_link_crossings` returns the chain's
closed form (the geometric-series sum it generalizes).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from repro.core.multihop.messages import expected_link_crossings
from repro.core.multihop.states import RECOVERY
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    TreeState,
    tree_state_space,
)
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "tree_expected_link_crossings",
    "tree_message_components",
    "tree_total_message_rate",
]


def tree_expected_link_crossings(
    topology: Topology, params: MultiHopParameters
) -> float:
    """Mean links crossed by one flooded end-to-end message.

    An edge into a node at depth ``d`` carries the message iff it
    survived the ``d - 1`` ancestor edges:
    ``E = sum_v (1-p)^(depth(v) - 1)``.  On a chain this is the
    geometric series of eqs. 14-15, so the chain's closed form is used
    there (same value, and bit-identical to the chain module).
    """
    if topology.is_chain:
        return expected_link_crossings(params)
    success = 1.0 - params.loss_rate
    return sum(
        success ** (topology.depth(node) - 1)
        for node in range(1, topology.num_nodes)
    )


def _frontier_counts(topology: Topology, state: object) -> tuple[int, int]:
    """``(fast, slow)`` frontier edge counts of one state (RECOVERY: 0, 0)."""
    if not isinstance(state, TreeState):
        return (0, 0)
    consistent = set(state.consistent)
    slow = set(state.slow)
    fast = sum(
        1
        for node in range(1, topology.num_nodes)
        if node not in consistent
        and node not in slow
        and (topology.parent(node) == 0 or topology.parent(node) in consistent)
    )
    return (fast, len(state.slow))


@functools.lru_cache(maxsize=256)
def _state_space_counts(topology: Topology, with_recovery: bool) -> tuple:
    """``(states, counts)``: the raw state space and each state's
    :func:`_frontier_counts`, computed once."""
    states = tree_state_space(topology, with_recovery, MAX_ENUMERATED_TREE_STATES)
    return states, tuple(_frontier_counts(topology, state) for state in states)


def tree_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    stationary: Mapping[object, float],
) -> dict[str, float]:
    """Per-kind per-link-transmission rates for the tree chain."""
    if protocol not in Protocol.multihop_family():
        raise ValueError(f"{protocol} is not part of the multi-hop analysis")
    success = 1.0 - params.loss_rate
    delta = params.delay
    retransmit = 1.0 / params.retransmission_interval
    # The frontier counts of a distribution over the whole state space
    # in canonical order (as every model and template builds it) are
    # computed once per state space; other mappings are counted here.
    states, counts = _state_space_counts(topology, protocol is Protocol.HS)
    if tuple(stationary) != states:
        counts = [_frontier_counts(topology, state) for state in stationary]

    # Mean in-flight (fast frontier) and waiting (slow frontier) edge
    # counts, iterated in state order.  On a chain both counts are 0/1,
    # so the sums equal the chain module's filtered probability sums.
    fast_edges = sum(
        probability * fast
        for probability, (fast, _) in zip(stationary.values(), counts)
        if fast
    )
    slow_edges = sum(
        probability * slow
        for probability, (_, slow) in zip(stationary.values(), counts)
        if slow
    )
    recovery = stationary.get(RECOVERY, 0.0)

    components = {
        "trigger_hops": fast_edges / delta,
        "refresh_hops": 0.0,
        "retransmissions": 0.0,
        "acks": 0.0,
        "recovery_traffic": 0.0,
    }
    if protocol.uses_refreshes:
        components["refresh_hops"] = (
            tree_expected_link_crossings(topology, params) / params.refresh_interval
        )
    if protocol.reliable_triggers:
        components["retransmissions"] = retransmit * slow_edges
        components["acks"] = (
            success * fast_edges / delta + success * retransmit * slow_edges
        )
    if protocol is Protocol.HS:
        # Leaving RECOVERY costs ~2E link-crossings (notification sweep
        # plus the reinstallation flood): rate-out * 2E = pi_F / Delta.
        components["recovery_traffic"] = recovery / delta
    return components


def tree_total_message_rate(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    stationary: Mapping[object, float],
) -> float:
    """Total per-link-transmission rate of the tree chain."""
    return sum(
        tree_message_components(protocol, params, topology, stationary).values()
    )
