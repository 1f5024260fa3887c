"""Transitions of the multi-hop signaling model, on any rooted tree.

Like every model family, the tree is one spec list, one rate function
and one reference model.  The transition *structure* (which state goes
where, tagged with the kind of event) is generated once by
:func:`tree_transition_specs`, and :func:`tree_tag_rates` prices each tag
at one point.  Two paths read them and must stay bit-identical:

* :class:`~repro.core.multihop.tree_model.TreeModel` accumulates the
  reference rate dict with :func:`repro.core.markov.spec_rates`
  (:func:`build_tree_rates` is that dict for homogeneous links);
* :class:`repro.core.templates.TreeTemplate` maps each tag to a
  derived-feature index and scatters per-point rate vectors into the
  compiled COO structure.

Both therefore agree edge for edge, in the same accumulation order.
The paper's chain (Figs. 15-16, eqs. 9-11) is the unary tree
``Topology.chain(N)``; the per-tag rates are the chain's own per-hop
expressions (:mod:`repro.core.multihop.transitions`):

* an in-flight message crosses its edge at ``(1-p)/Delta`` or is lost
  at ``p/Delta``, independently per frontier edge;
* a slow frontier node at depth ``d`` is repaired at the chain's
  ``d``-hop slow-path rate (refreshes must survive the whole root
  path; hop-local retransmissions just the broken edge);
* soft-state timeouts fire *first* at a consistent node ``v`` at the
  chain's first-timeout rate for depth ``d(v)``, detaching ``v``'s
  whole subtree (downstream nodes are starved of refreshes too) and
  leaving the edge into ``v`` slow;
* hard state replaces timeouts with external false signals — any of
  the ``E`` receivers fires at ``lambda_x`` — and a recovery state
  whose exit mirrors the chain's sender-notification round trip.

Every per-edge tag carries the depth of its frontier node, so on a
chain, where each depth is one hop, a tag names one link: a per-hop
link profile (:mod:`repro.core.multihop.heterogeneous`) prices the same
spec list, and the structured O(hops) kernel reads its rows by tag.

The spec list is built on integer bitmasks.  Each state is keyed by one
integer, its consistent node bits with its slow node bits above them;
the children and subtree masks of every node are computed once per
topology.  A frontier, loss, repair or timeout event then finds its
destination, the very object of
:func:`~repro.core.multihop.tree_states.tree_state_space`, with a few
integer operations and one dict lookup, and the template indexes the
spec list's states by identity.  SS and SS+RT differ only in their tag
rates, so they share one spec list.
"""

from __future__ import annotations

import functools
import operator

from repro.core.markov import spec_rates, spec_tags
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import (
    first_timeout_rate,
    multihop_protocol,
    slow_path_recovery_rate,
)
from repro.core.multihop.tree_states import (
    RECOVERY,
    _enumerated_tree_states,
    tree_state_space,
)
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = ["build_tree_rates", "tree_tag_rates", "tree_transition_specs"]

Rates = dict[tuple[object, object], float]

#: Transition tags: ("update",), ("advance", depth), ("lose", depth),
#: ("recover", depth), ("timeout", depth), ("to_recovery",),
#: ("from_recovery",); the depth is the frontier or timed-out node's.
Tag = tuple


@functools.lru_cache(maxsize=256)
def _node_masks(topology: Topology) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(children, subtree)``: per node, the bitmask of its children and
    of its whole subtree (itself included); bit ``v`` is node ``v``."""
    children = [0] * topology.num_nodes
    subtree = [1 << node for node in range(topology.num_nodes)]
    # Parents precede children, so a backward pass sees every subtree
    # complete before folding it into its parent's.
    for node in range(topology.num_edges, 0, -1):
        parent = topology.parents[node - 1]
        children[parent] |= 1 << node
        subtree[parent] |= subtree[node]
    return tuple(children), tuple(subtree)


def tree_transition_specs(
    protocol: Protocol, topology: Topology, max_states: int | None = None
) -> tuple[tuple[object, object, Tag], ...]:
    """``(origin, destination, tag)`` triples, in canonical build order.

    The order is load-bearing: both the reference rate dict and the
    compiled template accumulate parallel edges (hard state's update
    and recovery exits into the start state) in this sequence, keeping
    the two paths bit-identical.  Updates come first (every state
    restarts installation at the root), then each state's frontier and
    timeout events in node order, then the recovery exit.

    Every origin and destination is the state object of
    :func:`~repro.core.multihop.tree_states.tree_state_space`.  SS and
    SS+RT share one list, since only their tag rates differ, and so do
    all caps that admit the state space.

    ``max_states`` raises the enumeration cap for the iterative
    backend; the default keeps the direct path's
    :data:`~repro.core.multihop.tree_states.MAX_TREE_STATES` guard.
    """
    hard_state = multihop_protocol(protocol) is Protocol.HS
    tree_state_space(topology, hard_state, max_states)  # the cap check
    return _tree_specs(topology, hard_state)


@functools.lru_cache(maxsize=256)
def _tree_specs(topology: Topology, hard_state: bool) -> tuple[tuple[object, object, Tag], ...]:
    """:func:`tree_transition_specs` past its checks.

    Each state is keyed by one integer, its consistent node bitmask (the
    state space record's) with its slow node bitmask above it, and every
    destination is found by its key: an event is a few integer
    operations, never a scan of the state's node sets.
    """
    space = _enumerated_tree_states(topology, hard_state)
    states = space.states
    start = states[0]
    nodes = range(topology.num_nodes)
    shift = topology.num_nodes
    children, subtree = _node_masks(topology)
    slow_bit = [1 << node + shift for node in nodes]
    # A timeout at ``node`` clears its subtree's consistent and slow bits.
    kept = [~(mask | mask << shift) for mask in subtree]
    advance, lose, recover, timeout = (
        [(kind, topology.depth(node)) for node in nodes]
        for kind in ("advance", "lose", "recover", "timeout")
    )
    keyed = [
        (state, consistent + sum(map(slow_bit.__getitem__, state.slow)), consistent)
        for state, consistent in zip(states, space.consistent)
        if state is not RECOVERY
    ]
    by_key = {key: state for state, key, _ in keyed}

    # Sender-side updates restart installation from the root.
    specs: list[tuple[object, object, Tag]] = [
        (state, start, ("update",)) for state in states[1:]
    ]
    for state, key, consistent in keyed:
        # Frontier: the children of the root and of consistent nodes,
        # less the consistent nodes, in node order.
        reached = functools.reduce(
            operator.or_, map(children.__getitem__, state.consistent), children[0]
        )
        frontier = reached & ~consistent
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            node = bit.bit_length() - 1
            crossed = by_key[(key | bit) & ~slow_bit[node]]
            if key & slow_bit[node]:
                specs.append((state, crossed, recover[node]))
            else:
                specs.append((state, crossed, advance[node]))
                specs.append((state, by_key[key | slow_bit[node]], lose[node]))
        if hard_state:
            specs.append((state, RECOVERY, ("to_recovery",)))
            continue
        # A first timeout at consistent ``node`` detaches its subtree
        # (refresh starvation cascades) and leaves its own edge slow.
        specs += [
            (state, by_key[key & kept[node] | slow_bit[node]], timeout[node])
            for node in state.consistent
        ]
    if hard_state:
        specs.append((RECOVERY, start, ("from_recovery",)))
    return tuple(specs)


def tree_tag_rates(
    protocol: Protocol, params: MultiHopParameters, topology: Topology, tags
) -> list[float]:
    """The rate of each transition tag of ``tags`` when every link shares
    ``params``' loss and delay (the lumped spec list's depth-free
    ``("advance",)`` and ``("lose",)`` included), via the chain helpers."""
    n = topology.num_edges
    fixed = {
        "update": params.update_rate,
        "advance": (1.0 - params.loss_rate) / params.delay,
        "lose": params.loss_rate / params.delay,
        "to_recovery": n * params.external_false_signal_rate,
        "from_recovery": 1.0 / (2.0 * n * params.delay),
    }
    rates = []
    for tag in tags:
        kind = tag[0]
        if kind in fixed:
            rates.append(fixed[kind])
        elif kind == "recover":
            rates.append(slow_path_recovery_rate(protocol, params, tag[1]))
        elif kind == "timeout":
            rates.append(first_timeout_rate(params, tag[1] - 1))
        else:
            raise ValueError(f"unknown transition tag {tag!r}")
    return rates


def build_tree_rates(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    max_states: int | None = None,
) -> Rates:
    """All transition rates of the tree chain for ``protocol``, every
    link at ``params``' loss and delay."""
    specs = tree_transition_specs(protocol, topology, max_states)
    tags = spec_tags(specs)
    return spec_rates(specs, dict(zip(tags, tree_tag_rates(protocol, params, topology, tags))))
