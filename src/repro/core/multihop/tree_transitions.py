"""Transitions of the tree signaling model — shared with the templates.

Like every model family, the tree is one spec list, one rate function
and one reference model.  The transition *structure* (which state goes
where, tagged with the kind of event) is generated once by
:func:`tree_transition_specs`, and :func:`tree_tag_rate` prices each tag
at one point.  Two paths read them and must stay bit-identical:

* :func:`build_tree_rates` accumulates the reference rate dict (what
  :class:`TreeModel` solves) with :func:`repro.core.markov.spec_rates`;
* :class:`repro.core.templates.TreeTemplate` maps each tag to a
  derived-feature index and scatters per-point rate vectors into the
  compiled COO structure.

Both therefore agree edge for edge, in the same accumulation order.
The per-tag rate expressions reuse the chain modules' own helpers —
``slow_path_recovery_rate`` at the repaired node's depth,
``first_timeout_rate`` at depth - 1 — so a unary tree produces the
exact floats of :func:`~repro.core.multihop.transitions.build_multihop_rates`:

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
"""

from __future__ import annotations

import functools

from repro.core.markov import spec_rates, spec_tags
from repro.core.multihop.states import RECOVERY
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import (
    first_timeout_rate,
    slow_path_recovery_rate,
    supported_protocols,
)
from repro.core.multihop.tree_states import TreeState, tree_state_space
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = ["build_tree_rates", "tree_tag_rate", "tree_transition_specs"]

Rates = dict[tuple[object, object], float]

#: Transition tags: ("update",), ("advance",), ("lose",),
#: ("recover", depth), ("timeout", depth), ("to_recovery",),
#: ("from_recovery",).
Tag = tuple


def _advance(state: TreeState, node: int) -> TreeState:
    """``node``'s frontier edge is crossed: it joins the consistent set
    (its children implicitly become fast frontier edges)."""
    return TreeState(
        tuple(sorted(state.consistent + (node,))),
        tuple(v for v in state.slow if v != node),
    )


def _mark_slow(state: TreeState, node: int) -> TreeState:
    """``node``'s in-flight message is lost: the edge turns slow."""
    return TreeState(state.consistent, tuple(sorted(state.slow + (node,))))


def _timeout(state: TreeState, node: int, topology: Topology) -> TreeState:
    """First state-timeout at consistent ``node``: its whole subtree
    detaches (refresh starvation cascades) and its edge turns slow."""
    removed = set(topology.subtree(node))
    consistent = tuple(v for v in state.consistent if v not in removed)
    slow = tuple(
        sorted(
            [v for v in state.slow if topology.parent(v) not in removed] + [node]
        )
    )
    return TreeState(consistent, slow)


@functools.lru_cache(maxsize=256)
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

    ``max_states`` raises the enumeration cap for the iterative
    backend; the default keeps the direct path's
    :data:`~repro.core.multihop.tree_states.MAX_TREE_STATES` guard.
    """
    protocol = Protocol(protocol)
    if protocol not in supported_protocols():
        raise ValueError(f"{protocol} is not part of the multi-hop analysis")
    with_recovery = protocol is Protocol.HS
    states = tree_state_space(topology, with_recovery, max_states)
    start = states[0]
    specs: list[tuple[object, object, Tag]] = []

    # Sender-side updates restart installation from the root.
    for state in states[1:]:
        specs.append((state, start, ("update",)))

    for state in states:
        if state is RECOVERY:
            continue
        in_consistent = set(state.consistent)
        in_slow = set(state.slow)
        frontier = [
            node
            for node in range(1, topology.num_nodes)
            if node not in in_consistent
            and (topology.parent(node) == 0 or topology.parent(node) in in_consistent)
        ]
        for node in frontier:
            if node in in_slow:
                specs.append(
                    (
                        state,
                        _advance(state, node),
                        ("recover", topology.depth(node)),
                    )
                )
            else:
                specs.append((state, _advance(state, node), ("advance",)))
                specs.append((state, _mark_slow(state, node), ("lose",)))
        if protocol is not Protocol.HS:
            for node in state.consistent:
                specs.append(
                    (
                        state,
                        _timeout(state, node, topology),
                        ("timeout", topology.depth(node)),
                    )
                )
        else:
            specs.append((state, RECOVERY, ("to_recovery",)))
    if with_recovery:
        specs.append((RECOVERY, start, ("from_recovery",)))
    return tuple(specs)


def tree_tag_rate(
    protocol: Protocol, params: MultiHopParameters, topology: Topology, tag: Tag
) -> float:
    """The rate of one transition tag, via the chain helpers."""
    success = 1.0 - params.loss_rate
    if tag[0] == "update":
        return params.update_rate
    if tag[0] == "advance":
        return success / params.delay
    if tag[0] == "lose":
        return params.loss_rate / params.delay
    if tag[0] == "recover":
        return slow_path_recovery_rate(protocol, params, tag[1])
    if tag[0] == "timeout":
        return first_timeout_rate(params, tag[1] - 1)
    n = topology.num_edges
    if tag[0] == "to_recovery":
        return n * params.external_false_signal_rate
    if tag[0] == "from_recovery":
        return 1.0 / (2.0 * n * params.delay)
    raise ValueError(f"unknown transition tag {tag!r}")


def build_tree_rates(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    max_states: int | None = None,
) -> Rates:
    """All transition rates of the tree chain for ``protocol``.

    On ``Topology.chain(N)`` the result carries exactly the floats of
    :func:`~repro.core.multihop.transitions.build_multihop_rates`, key
    for key (modulo the state encoding), in the same accumulation
    order.
    """
    specs = tree_transition_specs(protocol, topology, max_states)
    return spec_rates(
        specs, {tag: tree_tag_rate(protocol, params, topology, tag) for tag in spec_tags(specs)}
    )
