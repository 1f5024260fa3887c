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
every rate float is a ``tree_tag_rates`` float times an integer ``m``, and
the reference dict and the compiled template accumulate the exact same
floats in the same order (the usual template bit-parity discipline,
applied within the lumped family).

Asymmetric trees (chains, caterpillars) have trivial orbits and gain
nothing; :func:`select_tree_backend` routes them to the direct path
below the cap and to the iterative sparse backend above it.

The spec list names every orbit by the object of
:func:`lumped_state_space`.  Events walk each sorted multiset run by
run (one event per distinct member, its multiplicity the run length),
a successor goes into the remaining members by bisection, and the
events of a crossed member configuration are computed once per spec
list: every orbit holding that member shares its object.  SS and SS+RT
share one spec list, and the hard-state space is the soft-state space
with ``RECOVERY`` appended.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import math

from repro.core.markov import StateSpace, ordered_sum, spec_rates, spec_tags
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    MAX_TREE_STATES,
    RECOVERY,
    StateSpaceLimitError,
    TreeState,
    append_recovery,
    projected_tree_states,
)
from repro.core.multihop.tree_transitions import tree_tag_rates
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
    "lumped_space",
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


class _OrbitEvents:
    """The lifted edge events of one ``(topology, with_timeouts)``.

    Per node it holds the representative child of each sibling group and
    the events of a fast and of a slow edge into the node, so an event
    is a few list lookups.  Members of a sorted multiset are walked run
    by run, and a successor goes into the remaining members by
    bisection, which spells the new multiset as sorting it would.

    Every member configuration handed to :meth:`edge` is an object of
    the enumerated state space, shared by every orbit that holds it, so
    a crossed member's events are computed once and kept by the
    object's identity; the memo holds the object too, so no other
    object can take over its id while the memo lives.
    """

    def __init__(self, topology: Topology, with_timeouts: bool) -> None:
        nodes = range(topology.num_nodes)
        self.representatives = [
            tuple(group[0] for group in _sibling_groups(topology, node)) for node in nodes
        ]
        # A crossed edge's fresh configuration: every child edge fast.
        crossed = [
            ("C", tuple((FAST,) * len(group) for group in _sibling_groups(topology, node)))
            for node in nodes
        ]
        self.fast = [((("advance",), 1, crossed[node]), (("lose",), 1, SLOW)) for node in nodes]
        self.slow = [((("recover", topology.depth(node)), 1, crossed[node]),) for node in nodes]
        self.timeout = [
            ((("timeout", topology.depth(node)), 1, SLOW),) if with_timeouts else ()
            for node in nodes
        ]
        self._crossed_events: dict[tuple[int, int], tuple[Config, list]] = {}

    def lifted(self, node: int, below: tuple[tuple[Config, ...], ...]) -> list:
        """Events of the child-edge multisets of consistent ``node``.

        ``(tag, multiplicity, successor_below)`` triples: each *distinct*
        member configuration of each group fires once, with multiplicity
        equal to its occurrence count — exactly the orbit-aggregated rate
        ``q_hat(O, O') = sum over y in O' of q(x, y)``.
        """
        events = []
        for position, child in enumerate(self.representatives[node]):
            members = below[position]
            head, tail = below[:position], below[position + 1 :]
            start = 0
            for member, run in itertools.groupby(members):
                count = len(tuple(run))
                rest = members[:start] + members[start + 1 :]
                start += count
                for tag, mult, successor in self.edge(child, member):
                    at = bisect.bisect_right(rest, successor)
                    events.append(
                        (tag, count * mult, head + (rest[:at] + (successor,) + rest[at:],) + tail)
                    )
        return events

    def edge(self, node: int, config: Config):
        """Events of one edge configuration (edge from the parent into
        ``node``), mirroring the raw model's per-edge transitions."""
        if config == FAST:
            return self.fast[node]
        if config == SLOW:
            return self.slow[node]
        # Crossed: the node's own soft-state timeout detaches its whole
        # subtree (the edge turns slow, everything below vanishes), and
        # every child-edge event lifts through the multisets.
        key = (node, id(config))
        if key not in self._crossed_events:
            events = list(self.timeout[node])
            events += [
                (tag, mult, ("C", below)) for tag, mult, below in self.lifted(node, config[1])
            ]
            self._crossed_events[key] = (config, events)
        return self._crossed_events[key][1]


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


def _state_counts(state: LumpedTreeState) -> tuple[int, int, int]:
    """``(consistent_edges, fast_edges, slow_edges)`` of one orbit."""
    consistent, fast, slow = 0, 0, 0
    for group in state.groups:
        for member, run in itertools.groupby(group):
            count = len(tuple(run))
            member_consistent, member_fast, member_slow = _config_counts(member)
            consistent += count * member_consistent
            fast += count * member_fast
            slow += count * member_slow
    return (consistent, fast, slow)


@functools.lru_cache(maxsize=128)
def _lumped_space(topology: Topology, with_recovery: bool) -> StateSpace:
    """:func:`lumped_space` past its cap check, computed once per
    topology (hard state appends ``RECOVERY`` to the soft-state space)."""
    if with_recovery:
        return append_recovery(_lumped_space(topology, False))
    belows: list[tuple[tuple[Config, ...], ...]] = [()]
    for group in _sibling_groups(topology, 0):
        member_configs = _edge_lumped_configs(topology, group[0])
        multisets = list(
            itertools.combinations_with_replacement(member_configs, len(group))
        )
        belows = [below + (multiset,) for below in belows for multiset in multisets]
    orbits = [LumpedTreeState(below) for below in belows]
    # Canonical order: slow-edge count, consistent-edge count, structure.
    counted = sorted(
        zip(map(_state_counts, orbits), orbits),
        key=lambda pair: (pair[0][2], pair[0][0], pair[1].groups),
    )
    consistent, fast, slow = zip(*(counts for counts, _ in counted))
    return StateSpace(
        tuple(state for _, state in counted),
        full=consistent.index(topology.num_edges),
        fast=fast,
        slow=slow,
    )


def lumped_space(topology: Topology, with_recovery: bool) -> StateSpace:
    """:func:`lumped_state_space` with each orbit's fast and slow edge
    counts (an orbit holds no node bitmask)."""
    projected = projected_lumped_states(topology)
    if projected > MAX_LUMPED_TREE_STATES:
        raise StateSpaceLimitError(topology, projected, MAX_LUMPED_TREE_STATES)
    return _lumped_space(topology, with_recovery)


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
    return lumped_space(topology, with_recovery).states


def lumped_transition_specs(
    protocol: Protocol, topology: Topology
) -> tuple[tuple[object, object, Tag, int], ...]:
    """``(origin, destination, tag, multiplicity)`` in canonical order.

    The build order mirrors
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    — updates first, then each orbit's lifted edge events, then the
    recovery exit — so the reference rate dict and the compiled lumped
    template accumulate identical floats in identical order.  Every
    origin and destination is the orbit object of
    :func:`lumped_state_space`; SS and SS+RT share one list.
    """
    return _lumped_specs(topology, multihop_protocol(protocol) is Protocol.HS)


@functools.lru_cache(maxsize=128)
def _lumped_specs(
    topology: Topology, hard_state: bool
) -> tuple[tuple[object, object, Tag, int], ...]:
    """:func:`lumped_transition_specs` past its protocol check."""
    states = lumped_state_space(topology, hard_state)
    start = states[0]
    canonical = {state.groups: state for state in states if state is not RECOVERY}
    events = _OrbitEvents(topology, not hard_state)
    specs: list[tuple[object, object, Tag, int]] = [
        (state, start, ("update",), 1) for state in states[1:]
    ]
    for state in states:
        if state is RECOVERY:
            continue
        for tag, multiplicity, below in events.lifted(0, state.groups):
            specs.append((state, canonical[below], tag, multiplicity))
        if hard_state:
            specs.append((state, RECOVERY, ("to_recovery",), 1))
    if hard_state:
        specs.append((RECOVERY, start, ("from_recovery",), 1))
    return tuple(specs)


def build_lumped_rates(
    protocol: Protocol, params: MultiHopParameters, topology: Topology
) -> dict[tuple[object, object], float]:
    """All transition rates of the lumped chain for ``protocol``.

    Each rate is its tag's ``tree_tag_rates`` float times its multiplicity — the same float
    product, in the same spec order, the lumped template scatters.
    """
    specs = lumped_transition_specs(protocol, topology)
    tags = spec_tags(specs)
    return spec_rates(specs, dict(zip(tags, tree_tag_rates(protocol, params, topology, tags))))


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


@dataclasses.dataclass(frozen=True)
class LumpedTreeSolution(TreeSolution):
    """Tree metrics computed on the orbit (lumped) state space.

    Same metric surface as :class:`TreeSolution`; the states are
    :class:`LumpedTreeState` orbits, so the per-node views marginal
    through the orbit structure instead of filtering raw states.
    """

    @functools.cached_property
    def _inconsistent_mass(self) -> list[float]:
        """Every node's inconsistent mass, marginal through the orbits;
        nodes on one group path share it."""
        by_path: dict[tuple[int, ...], float] = {}
        masses = [0.0]
        for node in range(1, self.params.hops + 1):
            path = _node_path(self.topology, node)
            if path not in by_path:
                reach = 0.0
                for state, probability in self._orbit_masses():
                    reach += probability * _consistent_fraction(state.groups, path)
                by_path[path] = 1.0 - reach
            masses.append(by_path[path])
        return masses

    def _orbit_masses(self):
        """``(orbit, mass)`` of every orbit, in state order (``RECOVERY``,
        always last, holds no consistent node)."""
        return zip(self.space.states[: self.space.recovery], self.row)

    @functools.cached_property
    def _consistent_leaves(self) -> tuple[float, float]:
        """Expected consistent leaves, plain and fan-out weighted, from
        one pass over the orbits instead of one per leaf."""
        leaves = weighted = 0.0
        for state, probability in self._orbit_masses():
            count, weight = _state_leaf_stats(self.topology, state)
            if count:
                leaves += probability * count
            if weight:
                weighted += probability * weight
        return leaves, weighted

    @property
    def mean_leaf_inconsistency(self) -> float:
        """Average per-leaf inconsistency via expected consistent-leaf counts."""
        return 1.0 - self._consistent_leaves[0] / len(self.topology.leaves())

    @property
    def fanout_weighted_inconsistency(self) -> float:
        """Fan-out-weighted leaf inconsistency from orbit leaf stats."""
        total_weight = ordered_sum(
            float(self.topology.fanout(self.topology.parent(leaf)))
            for leaf in self.topology.leaves()
        )
        return 1.0 - self._consistent_leaves[1] / total_weight


class LumpedTreeModel(TreeModel):
    """SS, SS+RT or HS signaling on the orbit (lumped) state space.

    A :class:`TreeModel` whose state space, rates and solution are the
    orbit space's.
    """

    solution = LumpedTreeSolution

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        topology: Topology,
        solver: str = "auto",
    ) -> None:
        super().__init__(protocol, params, topology, solver=solver)

    def _enumerate(self) -> StateSpace:
        """The chain's orbit space record (the cap is checked here)."""
        return lumped_space(self.topology, self.protocol is Protocol.HS)

    def transition_rates(self) -> dict[tuple[object, object], float]:
        """The lumped chain's transition rates."""
        return build_lumped_rates(self.protocol, self.params, self.topology)
