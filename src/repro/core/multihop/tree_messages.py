"""Tree signaling message rates — the eqs. 13-17 accounting on a tree.

Overhead still counts **per-link transmissions**; the tree differences
are that several frontier edges can carry in-flight messages at once
and that a refresh is *flooded*: forwarded down every branch, so its
expected link-crossing count sums reach probabilities over all edges
rather than along one path.

On a chain every expression collapses to the paper's chain formula:
the per-state fast/slow frontier counts are exactly 0 or 1, and
:func:`tree_expected_link_crossings` returns the chain's closed form
(the geometric-series sum it generalizes).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping

from repro.core.multihop.messages import expected_link_crossings, link_message_components
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    RECOVERY,
    TreeState,
    tree_state_space,
)
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "tree_expected_link_crossings",
    "tree_message_components",
]


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
    return sum(
        success ** (topology.depth(node) - 1)
        for node in range(1, topology.num_nodes)
    )


def _frontier_counts(topology: Topology, state: object) -> tuple[int, int]:
    """``(fast, slow)`` frontier edge counts of one state (RECOVERY: 0, 0).

    The consistent set is downward closed, so the frontier holds the
    children of the root and of every consistent node, less the
    consistent nodes themselves.
    """
    if not isinstance(state, TreeState):
        return (0, 0)
    frontier = (
        topology.fanout(0)
        + sum(map(topology.fanout, state.consistent))
        - len(state.consistent)
    )
    return (frontier - len(state.slow), len(state.slow))


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
    # The frontier counts of a distribution over the whole state space
    # in canonical order (as every model and template builds it) are
    # computed once per state space; other mappings are counted here.
    states, counts = _state_space_counts(topology, protocol is Protocol.HS)
    if tuple(stationary) != states:
        counts = [_frontier_counts(topology, state) for state in stationary]

    # Mean in-flight (fast frontier) and waiting (slow frontier) edge
    # counts, iterated in state order.  On a chain both counts are 0/1,
    # so the sums are the paper's filtered probability sums.
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
    return link_message_components(
        protocol,
        params,
        fast_edges,
        slow_edges,
        stationary.get(RECOVERY, 0.0),
        tree_expected_link_crossings(topology, params),
    )
