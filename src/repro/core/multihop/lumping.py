"""Exact lumping of isomorphic sibling subtrees — the tree-scale path.

The tree model's state space is the cross product of independent edge
configurations, so it explodes combinatorially: a complete binary tree
of depth 3 has 15129 raw states and its generator's LU factorization
~10^8 nonzeros.  But the chain is highly symmetric: permuting two
sibling subtrees with the *same shape* maps the transition graph onto
itself and preserves every rate (rates depend only on a node's depth,
never its identity).  The orbits of that automorphism group are
therefore a **strongly lumpable** partition — the aggregated process is
itself Markov, with

    q_hat(O, O') = sum over y in O' of q(x, y)    for any x in O,

and solving the lumped chain is *exact*: the stationary probability of
an orbit equals the summed raw probability of its members (proved in
exact rational arithmetic by ``tests/core/test_tree_lumping.py``).
Symmetric shapes collapse combinatorially — a ``k``-leaf star's ``3^k``
raw states become ``C(k+2, 2)`` multisets, the depth-3 binary tree's
15129 become 741 — which is what breaks the old
:data:`~repro.core.multihop.tree_states.MAX_TREE_STATES` wall.

A lumped state replaces each group of same-shape sibling edges with a
sorted *multiset* of member configurations, recursively:

* ``("F",)`` — fast frontier edge (message in flight);
* ``("S",)`` — slow frontier edge (waiting for the slow path);
* ``("C", below)`` — crossed edge whose node is consistent; ``below``
  holds one sorted multiset of child-edge configurations per sibling
  group (groups ordered by canonical subtree shape).

A transition's lumped rate is the raw tag rate times the *multiplicity*
— the number of identical members the event could have fired at — so
every rate float is ``tree_tag_rate(...) * m`` with integer ``m``, and
the reference dict and the compiled template accumulate the exact same
floats in the same order (the usual template bit-parity discipline,
applied within the lumped family).

Asymmetric trees (chains, caterpillars) have trivial orbits and gain
nothing; :func:`select_tree_backend` routes them to the direct path
below the cap and to the iterative sparse backend above it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.states import RECOVERY
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import supported_protocols
from repro.core.multihop.tree_messages import tree_expected_link_crossings
from repro.core.multihop.tree_model import TreeSolution
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    MAX_TREE_STATES,
    StateSpaceLimitError,
    TreeState,
    projected_tree_states,
)
from repro.core.multihop.tree_transitions import tree_tag_rate
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = [
    "MAX_LUMPED_TREE_STATES",
    "TREE_BACKENDS",
    "LumpedTreeModel",
    "LumpedTreeSolution",
    "LumpedTreeState",
    "build_lumped_rates",
    "lump_tree_state",
    "lumped_message_components",
    "lumped_state_space",
    "lumped_transition_specs",
    "projected_lumped_states",
    "select_tree_backend",
]

#: Cap on the *lumped* state count.  Lumped chains stay sparse and are
#: solved through the standard splu/iterative machinery, so the ceiling
#: is far above the raw-enumeration wall; beyond it even the orbit
#: enumeration itself is the bottleneck.
MAX_LUMPED_TREE_STATES = 32768

#: Solve backends a tree task can request; ``"auto"`` routes by the
#: projected state counts (:func:`select_tree_backend`).
TREE_BACKENDS = ("auto", "direct", "lumped", "iterative")

#: Edge-configuration atoms.  Tuples (not bare strings) so mixed
#: configurations compare with plain tuple ordering: ``"C" < "F" < "S"``
#: puts crossed before fast before slow everywhere a multiset is sorted.
FAST = ("F",)
SLOW = ("S",)

Config = tuple
Tag = tuple


@dataclasses.dataclass(frozen=True, order=True)
class LumpedTreeState:
    """One orbit of tree states under sibling-subtree permutation.

    ``groups`` holds, per sibling group of the root (canonical shape
    order), the sorted multiset of member edge configurations.
    """

    groups: tuple[tuple[Config, ...], ...]

    def __str__(self) -> str:
        def render(config: Config) -> str:
            if config == FAST:
                return "F"
            if config == SLOW:
                return "S"
            return "C(" + render_groups(config[1]) + ")"

        def render_groups(groups: tuple[tuple[Config, ...], ...]) -> str:
            return "|".join(
                ",".join(render(member) for member in group) for group in groups
            )

        return "[" + render_groups(self.groups) + "]"


@functools.lru_cache(maxsize=4096)
def _shape(topology: Topology, node: int) -> tuple:
    """Canonical shape of the subtree rooted at ``node`` (sorted nested
    tuples): two subtrees are isomorphic iff their shapes are equal."""
    return tuple(sorted(_shape(topology, child) for child in topology.children(node)))


@functools.lru_cache(maxsize=4096)
def _sibling_groups(topology: Topology, node: int) -> tuple[tuple[int, ...], ...]:
    """``node``'s children partitioned into same-shape groups.

    Each group is a tuple of child ids; groups (and members within a
    group) are ordered by ``(shape, node id)``, fixing the canonical
    group order every lumped structure uses.
    """
    children = sorted(
        topology.children(node), key=lambda child: (_shape(topology, child), child)
    )
    groups: list[list[int]] = []
    for child in children:
        if groups and _shape(topology, groups[-1][0]) == _shape(topology, child):
            groups[-1].append(child)
        else:
            groups.append([child])
    return tuple(tuple(group) for group in groups)


def _group_index(topology: Topology, parent: int, child: int) -> int:
    """The index of the sibling group of ``parent`` containing ``child``."""
    for position, group in enumerate(_sibling_groups(topology, parent)):
        if child in group:
            return position
    raise ValueError(f"{child} is not a child of {parent}")


@functools.lru_cache(maxsize=4096)
def _projected_lumped_configs(topology: Topology, node: int) -> int:
    """Exact lumped configuration count of the edge into ``node``:
    ``2 + prod over groups of C(g + count - 1, count)`` (multisets)."""
    crossed = 1
    for group in _sibling_groups(topology, node):
        member_count = _projected_lumped_configs(topology, group[0])
        crossed *= math.comb(member_count + len(group) - 1, len(group))
    return 2 + crossed


@functools.lru_cache(maxsize=1024)
def projected_lumped_states(topology: Topology) -> int:
    """The exact lumped state count, computed without enumerating.

    Excludes the HS ``RECOVERY`` extra state.  Equals
    :func:`~repro.core.multihop.tree_states.projected_tree_states` on
    asymmetric trees (trivial orbits) and collapses combinatorially on
    symmetric ones (``C(k+2, 2)`` for a ``k``-leaf star).
    """
    total = 1
    for group in _sibling_groups(topology, 0):
        member_count = _projected_lumped_configs(topology, group[0])
        total *= math.comb(member_count + len(group) - 1, len(group))
    return total


def select_tree_backend(topology: Topology) -> str:
    """Route one topology to its solve backend by projected size.

    Below :data:`~repro.core.multihop.tree_states.MAX_TREE_STATES` the
    direct path keeps the bit-parity contract.  Above it, lumping is
    chosen when the orbit space either fits the direct-solve regime or
    compresses the raw space at least 4x (an asymmetric tree's identity
    lumping would just re-create the LU fill-in wall under another
    name); otherwise the iterative backend enumerates the raw space up
    to :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`.
    Raises :class:`StateSpaceLimitError` when nothing fits.
    """
    raw = projected_tree_states(topology)
    if raw <= MAX_TREE_STATES:
        return "direct"
    lumped = projected_lumped_states(topology)
    if lumped <= MAX_TREE_STATES or (
        lumped <= MAX_LUMPED_TREE_STATES and lumped * 4 <= raw
    ):
        return "lumped"
    if raw <= MAX_ENUMERATED_TREE_STATES:
        return "iterative"
    raise StateSpaceLimitError(topology, raw, MAX_ENUMERATED_TREE_STATES)


@functools.lru_cache(maxsize=4096)
def _edge_lumped_configs(topology: Topology, node: int) -> tuple[Config, ...]:
    """All lumped configurations of the edge into ``node``, sorted.

    The sorted order is load-bearing twice over: multisets are
    enumerated as ``combinations_with_replacement`` over it (producing
    ascending member tuples), and transition successors re-sort their
    multisets, so both spell every orbit the same way.
    """
    belows: list[tuple[tuple[Config, ...], ...]] = [()]
    for group in _sibling_groups(topology, node):
        member_configs = _edge_lumped_configs(topology, group[0])
        multisets = list(
            itertools.combinations_with_replacement(member_configs, len(group))
        )
        belows = [below + (multiset,) for below in belows for multiset in multisets]
    return tuple(sorted([FAST, SLOW] + [("C", below) for below in belows]))


def _crossed(topology: Topology, node: int) -> Config:
    """Fresh crossed configuration of ``node``'s edge: every child edge
    becomes a fast frontier edge."""
    return (
        "C",
        tuple(
            (FAST,) * len(group) for group in _sibling_groups(topology, node)
        ),
    )


@functools.lru_cache(maxsize=1024)
def _full_state(topology: Topology) -> LumpedTreeState:
    """The everything-consistent orbit (``pi`` complement of eq. 12)."""

    def full_config(node: int) -> Config:
        return (
            "C",
            tuple(
                tuple(full_config(group[0]) for _ in group)
                for group in _sibling_groups(topology, node)
            ),
        )

    return LumpedTreeState(
        tuple(
            tuple(full_config(group[0]) for _ in group)
            for group in _sibling_groups(topology, 0)
        )
    )


def _lifted_events(
    topology: Topology,
    node: int,
    below: tuple[tuple[Config, ...], ...],
    with_timeouts: bool,
):
    """Events of the child-edge multisets of consistent ``node``.

    Yields ``(tag, multiplicity, successor_below)``: each *distinct*
    member configuration of each group fires once, with multiplicity
    equal to its occurrence count — exactly the orbit-aggregated rate
    ``q_hat(O, O') = sum over y in O' of q(x, y)``.
    """
    for position, group in enumerate(_sibling_groups(topology, node)):
        members = below[position]
        handled: set[Config] = set()
        for member_index, member in enumerate(members):
            if member in handled:
                continue
            handled.add(member)
            multiplicity = members.count(member)
            rest = members[:member_index] + members[member_index + 1 :]
            for tag, mult, successor in _config_events(
                topology, group[0], member, with_timeouts
            ):
                new_members = tuple(sorted(rest + (successor,)))
                yield (
                    tag,
                    multiplicity * mult,
                    below[:position] + (new_members,) + below[position + 1 :],
                )


def _config_events(
    topology: Topology, node: int, config: Config, with_timeouts: bool
):
    """Events of one edge configuration (edge from the parent into
    ``node``), mirroring the raw model's per-edge transitions."""
    if config == FAST:
        yield (("advance",), 1, _crossed(topology, node))
        yield (("lose",), 1, SLOW)
        return
    depth = topology.depth(node)
    if config == SLOW:
        yield (("recover", depth), 1, _crossed(topology, node))
        return
    # Crossed: the node's own soft-state timeout detaches its whole
    # subtree (the edge turns slow, everything below vanishes), and
    # every child-edge event lifts through the multisets.
    if with_timeouts:
        yield (("timeout", depth), 1, SLOW)
    for tag, mult, new_below in _lifted_events(
        topology, node, config[1], with_timeouts
    ):
        yield (tag, mult, ("C", new_below))


def _state_sort_key(state: LumpedTreeState) -> tuple:
    consistent, _, slow = _state_counts(state)
    return (slow, consistent, state.groups)


@functools.lru_cache(maxsize=65536)
def _config_counts(config: Config) -> tuple[int, int, int]:
    """``(consistent_edges, fast_edges, slow_edges)`` of one config."""
    if config == FAST:
        return (0, 1, 0)
    if config == SLOW:
        return (0, 0, 1)
    consistent, fast, slow = 1, 0, 0
    for group in config[1]:
        for member in group:
            member_consistent, member_fast, member_slow = _config_counts(member)
            consistent += member_consistent
            fast += member_fast
            slow += member_slow
    return (consistent, fast, slow)


def _state_counts(state: object) -> tuple[int, int, int]:
    """``(consistent_edges, fast_edges, slow_edges)`` of one orbit
    (RECOVERY: all 0)."""
    consistent, fast, slow = 0, 0, 0
    for group in state.groups if isinstance(state, LumpedTreeState) else ():
        for member in group:
            member_consistent, member_fast, member_slow = _config_counts(member)
            consistent += member_consistent
            fast += member_fast
            slow += member_slow
    return (consistent, fast, slow)


@functools.lru_cache(maxsize=128)
def _state_space_counts(topology: Topology, with_recovery: bool) -> tuple:
    """``(states, counts)``: the lumped state space and each orbit's
    :func:`_state_counts`, computed once."""
    states = lumped_state_space(topology, with_recovery)
    return states, tuple(_state_counts(state) for state in states)


@functools.lru_cache(maxsize=128)
def lumped_state_space(
    topology: Topology, with_recovery: bool
) -> tuple[object, ...]:
    """All orbits of the tree model, in the canonical order.

    Mirrors :func:`~repro.core.multihop.tree_states.tree_state_space`:
    sorted by (slow-edge count, consistent-edge count, structure), the
    all-fast start orbit first, ``RECOVERY`` appended for hard state.
    Raises :class:`StateSpaceLimitError` (checked multiplicatively via
    :func:`projected_lumped_states` before enumerating) beyond
    :data:`MAX_LUMPED_TREE_STATES`.
    """
    projected = projected_lumped_states(topology)
    if projected > MAX_LUMPED_TREE_STATES:
        raise StateSpaceLimitError(topology, projected, MAX_LUMPED_TREE_STATES)
    belows: list[tuple[tuple[Config, ...], ...]] = [()]
    for group in _sibling_groups(topology, 0):
        member_configs = _edge_lumped_configs(topology, group[0])
        multisets = list(
            itertools.combinations_with_replacement(member_configs, len(group))
        )
        belows = [below + (multiset,) for below in belows for multiset in multisets]
    lumped = sorted(
        (LumpedTreeState(below) for below in belows), key=_state_sort_key
    )
    states: list[object] = list(lumped)
    if with_recovery:
        states.append(RECOVERY)
    return tuple(states)


@functools.lru_cache(maxsize=128)
def lumped_transition_specs(
    protocol: Protocol, topology: Topology
) -> tuple[tuple[object, object, Tag, int], ...]:
    """``(origin, destination, tag, multiplicity)`` in canonical order.

    The build order mirrors
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    — updates first, then each orbit's lifted edge events, then the
    recovery exit — so the reference rate dict and the compiled lumped
    template accumulate identical floats in identical order.
    """
    protocol = Protocol(protocol)
    if protocol not in supported_protocols():
        raise ValueError(f"{protocol} is not part of the multi-hop analysis")
    with_recovery = protocol is Protocol.HS
    states = lumped_state_space(topology, with_recovery)
    start = states[0]
    specs: list[tuple[object, object, Tag, int]] = []

    for state in states[1:]:
        specs.append((state, start, ("update",), 1))

    for state in states:
        if state is RECOVERY:
            continue
        for tag, multiplicity, below in _lifted_events(
            topology, 0, state.groups, protocol is not Protocol.HS
        ):
            specs.append((state, LumpedTreeState(below), tag, multiplicity))
        if protocol is Protocol.HS:
            specs.append((state, RECOVERY, ("to_recovery",), 1))
    if with_recovery:
        specs.append((RECOVERY, start, ("from_recovery",), 1))
    return tuple(specs)


def build_lumped_rates(
    protocol: Protocol, params: MultiHopParameters, topology: Topology
) -> dict[tuple[object, object], float]:
    """All transition rates of the lumped chain for ``protocol``.

    Each rate is ``tree_tag_rate(tag) * multiplicity`` — the same float
    product, in the same spec order, the lumped template scatters.
    """
    rates: dict[tuple[object, object], float] = {}
    for origin, destination, tag, multiplicity in lumped_transition_specs(
        protocol, topology
    ):
        rate = tree_tag_rate(protocol, params, topology, tag) * multiplicity
        if rate > 0.0 and origin != destination:
            key = (origin, destination)
            rates[key] = rates.get(key, 0.0) + rate
    return rates


def lump_tree_state(topology: Topology, state: object) -> object:
    """Project one raw :class:`TreeState` onto its orbit.

    The exactness tests use this to compare ``pi_hat(orbit)`` against
    the summed raw probabilities of its members.
    """
    if state is RECOVERY:
        return RECOVERY
    if not isinstance(state, TreeState):
        raise TypeError(f"cannot lump {state!r}")
    consistent = set(state.consistent)
    slow = set(state.slow)

    def config(node: int) -> Config:
        if node in slow:
            return SLOW
        if node not in consistent:
            return FAST
        return ("C", below(node))

    def below(node: int) -> tuple[tuple[Config, ...], ...]:
        return tuple(
            tuple(sorted(config(child) for child in group))
            for group in _sibling_groups(topology, node)
        )

    return LumpedTreeState(below(0))


@functools.lru_cache(maxsize=65536)
def _leaf_stats(topology: Topology, node: int, config: Config) -> tuple[int, float]:
    """``(consistent_leaves, fanout_weighted_consistent_leaves)`` below
    (and including) the edge into ``node``."""
    if config == FAST or config == SLOW:
        return (0, 0.0)
    groups = _sibling_groups(topology, node)
    if not groups:
        return (1, float(topology.fanout(topology.parent(node))))
    leaves, weighted = 0, 0.0
    for position, group in enumerate(groups):
        for member in config[1][position]:
            member_leaves, member_weighted = _leaf_stats(topology, group[0], member)
            leaves += member_leaves
            weighted += member_weighted
    return (leaves, weighted)


def _state_leaf_stats(
    topology: Topology, state: LumpedTreeState
) -> tuple[int, float]:
    leaves, weighted = 0, 0.0
    for position, group in enumerate(_sibling_groups(topology, 0)):
        for member in state.groups[position]:
            member_leaves, member_weighted = _leaf_stats(topology, group[0], member)
            leaves += member_leaves
            weighted += member_weighted
    return (leaves, weighted)


@functools.lru_cache(maxsize=1024)
def _node_path(topology: Topology, node: int) -> tuple[int, ...]:
    """Group indices along the root path to ``node`` (orbit marginals
    are identical for every node sharing this path)."""
    path: list[int] = []
    current = node
    while current != 0:
        parent = topology.parent(current)
        path.append(_group_index(topology, parent, current))
        current = parent
    return tuple(reversed(path))


@functools.lru_cache(maxsize=65536)
def _consistent_fraction(
    groups: tuple[tuple[Config, ...], ...], path: tuple[int, ...]
) -> float:
    """P(the node addressed by ``path`` is consistent | this orbit).

    Members of a sibling group are exchangeable within the orbit, so
    the node sits at each member slot with equal probability; the
    marginal is the nested average of crossed-member fractions.
    """
    members = groups[path[0]]
    rest = path[1:]
    total = 0.0
    handled: set[Config] = set()
    for member in members:
        if member in handled:
            continue
        handled.add(member)
        if member == FAST or member == SLOW:
            continue
        fraction = members.count(member) / len(members)
        if rest:
            total += fraction * _consistent_fraction(member[1], rest)
        else:
            total += fraction
    return total


def lumped_message_components(
    protocol: Protocol,
    params: MultiHopParameters,
    topology: Topology,
    stationary: dict[object, float],
) -> dict[str, float]:
    """Per-kind per-link-transmission rates from a lumped distribution.

    The same eqs. 13-17 accounting as
    :func:`~repro.core.multihop.tree_messages.tree_message_components`,
    with the expected fast/slow frontier edge counts read off the orbit
    structure (each ``("F",)``/``("S",)`` member *is* one frontier
    edge).
    """
    if protocol not in Protocol.multihop_family():
        raise ValueError(f"{protocol} is not part of the multi-hop analysis")
    success = 1.0 - params.loss_rate
    delta = params.delay
    retransmit = 1.0 / params.retransmission_interval

    # The orbit counts of a distribution over the whole state space in
    # canonical order (as every model and template builds it) are
    # computed once per state space; other mappings are counted here.
    states, counts = _state_space_counts(topology, protocol is Protocol.HS)
    if tuple(stationary) != states:
        counts = [_state_counts(state) for state in stationary]
    fast_edges = 0.0
    slow_edges = 0.0
    for probability, (_, fast, slow) in zip(stationary.values(), counts):
        if fast:
            fast_edges += probability * fast
        if slow:
            slow_edges += probability * slow
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
        components["recovery_traffic"] = recovery / delta
    return components


@dataclasses.dataclass(frozen=True)
class LumpedTreeSolution(TreeSolution):
    """Tree metrics computed on the orbit (lumped) state space.

    Same metric surface as :class:`TreeSolution`; the stationary keys
    are :class:`LumpedTreeState` orbits, so the per-node views marginal
    through the orbit structure instead of filtering raw states.
    """

    @property
    def inconsistency_ratio(self) -> float:
        """Any node inconsistent: ``1 - pi(full tree consistent)``."""
        return 1.0 - self.stationary.get(_full_state(self.topology), 0.0)

    def node_inconsistency(self, node: int) -> float:
        """Fraction of time non-root ``node`` is inconsistent."""
        if not 1 <= node <= self.topology.num_edges:
            raise ValueError(
                f"node must be in [1, {self.topology.num_edges}], got {node}"
            )
        path = _node_path(self.topology, node)
        reach = 0.0
        for state, probability in self.stationary.items():
            if isinstance(state, LumpedTreeState):
                reach += probability * _consistent_fraction(state.groups, path)
        return 1.0 - reach

    @property
    def mean_leaf_inconsistency(self) -> float:
        """Average per-leaf inconsistency via expected consistent-leaf
        counts (one pass over the orbits instead of one per leaf)."""
        total_leaves = len(self.topology.leaves())
        reach = 0.0
        for state, probability in self.stationary.items():
            if isinstance(state, LumpedTreeState):
                leaves, _ = _state_leaf_stats(self.topology, state)
                if leaves:
                    reach += probability * leaves
        return 1.0 - reach / total_leaves

    @property
    def fanout_weighted_inconsistency(self) -> float:
        """Fan-out-weighted leaf inconsistency from orbit leaf stats."""
        leaves = self.topology.leaves()
        total_weight = sum(
            float(self.topology.fanout(self.topology.parent(leaf))) for leaf in leaves
        )
        reach = 0.0
        for state, probability in self.stationary.items():
            if isinstance(state, LumpedTreeState):
                _, weighted = _state_leaf_stats(self.topology, state)
                if weighted:
                    reach += probability * weighted
        return 1.0 - reach / total_weight


class LumpedTreeModel:
    """SS, SS+RT or HS signaling on the orbit (lumped) state space."""

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        topology: Topology,
        solver: str = "auto",
    ) -> None:
        protocol = Protocol(protocol)
        if protocol not in supported_protocols():
            raise ValueError(
                f"{protocol.value} is not modeled in the multi-hop analysis; "
                f"use one of {[p.value for p in supported_protocols()]}"
            )
        if params.hops != topology.num_edges:
            raise ValueError(
                f"params.hops ({params.hops}) must equal the topology's edge "
                f"count ({topology.num_edges}); bind them together when sweeping"
            )
        self.protocol = protocol
        self.params = params
        self.topology = topology
        self.solver = solver
        self._rates = build_lumped_rates(protocol, params, topology)
        self._states = lumped_state_space(topology, protocol is Protocol.HS)

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent lumped tree CTMC."""
        return ContinuousTimeMarkovChain(self._states, self._rates, solver=self.solver)

    def transition_rates(self) -> dict[tuple[object, object], float]:
        """A copy of the chain's transition rates."""
        return dict(self._rates)

    def solution_from_stationary(
        self, stationary: dict[object, float]
    ) -> LumpedTreeSolution:
        """Wrap an externally computed stationary distribution."""
        breakdown = lumped_message_components(
            self.protocol, self.params, self.topology, stationary
        )
        return LumpedTreeSolution(
            protocol=self.protocol,
            params=self.params,
            topology=self.topology,
            stationary=stationary,
            message_breakdown=breakdown,
        )

    def solve(self) -> LumpedTreeSolution:
        """Compute the stationary distribution and message rates."""
        return self.solution_from_stationary(self.chain().stationary_distribution())
