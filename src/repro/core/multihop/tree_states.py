"""States of the multi-hop signaling Markov model, on any rooted tree.

The paper's chain (Figs. 15-16) tracks a single installation frontier —
``(i, s)``: ``i`` consistent hops, fast or slow path.  On a tree the
frontier is a *set* of edges: the nodes holding the sender's current
value always form a downward-closed subtree ``S`` containing the root (a
node can only have received the value through its parent), and each
*frontier* node — a node outside ``S`` whose parent is inside — is
reached either by an in-flight message (fast) or waits for a
refresh/retransmission after a loss (slow).

:class:`TreeState` records ``(consistent, slow)``: the non-root members
of ``S`` and the slow subset of the frontier (the fast frontier is
implied).  The chain is the unary tree ``Topology.chain(N)``, where this
is exactly the paper's state space — ``(i, 0)`` is
``consistent = (1..i), slow = ()`` and ``(i, 1)`` is
``consistent = (1..i), slow = (i+1,)`` — and :func:`tree_state_space`
lists it in the paper's order: ``(0,0)..(N,0)``, then ``(0,1)..(N-1,1)``.
Hard-state signaling adds the :data:`RECOVERY` pseudo-state ``F``
(Fig. 16) for the interval between a false removal and the sender
restarting installation.

State counts are exponential in fan-out × depth, so enumeration is
guarded: :func:`projected_tree_states` computes the exact count
*multiplicatively* — cheap integer arithmetic, no intermediate lists —
and an overflow raises :class:`StateSpaceLimitError` (a ``ValueError``
subclass carrying the topology signature and the projected count)
*before* any cross-product materializes.  A chain has ``2N+1`` states,
so the direct cap admits chains of up to 2047 hops.  The scale backends
(:mod:`repro.core.multihop.lumping`, the iterative sparse solver)
catch the typed error to reroute instead of string-matching.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

from repro.core.markov import StateSpace
from repro.core.multihop.topology import Topology

__all__ = [
    "MAX_ENUMERATED_TREE_STATES",
    "MAX_TREE_STATES",
    "RECOVERY",
    "Recovery",
    "StateSpaceLimitError",
    "TreeState",
    "projected_tree_states",
    "tree_space",
    "tree_state_space",
]

#: Refuse to enumerate beyond this many states on the *direct* solve
#: path.  The tree state count is exponential in fan-out x depth (a
#: complete binary tree of depth 3 already has 15129 states).  The LU
#: fill-in that first set this cap came from two dense rows of the old
#: sparse system, the normalization row and the start state's balance
#: row; the pinned :class:`~repro.core.markov.SparseStationarySystem`
#: has neither, but the cap stays: past it the lumping or iterative
#: backends (see :func:`repro.core.multihop.lumping.select_tree_backend`)
#: solve far fewer states, or keep only bounded fill.
MAX_TREE_STATES = 4096

#: Absolute enumeration ceiling for the iterative (ILU/GMRES) backend,
#: which never factorizes the generator exactly and therefore tolerates
#: much larger raw state spaces than the direct path.  Beyond this even
#: building the Python-level transition structure is the bottleneck.
MAX_ENUMERATED_TREE_STATES = 65536


class StateSpaceLimitError(ValueError):
    """A tree state space exceeds the requested enumeration cap.

    Subclasses ``ValueError`` so legacy ``except ValueError`` callers
    keep working; the scale-backend routing catches *this* type and
    reads the structured fields instead of parsing the message.

    Attributes
    ----------
    topology:
        The offending :class:`Topology` (its ``parents`` tuple is the
        topology signature).
    projected:
        The exact state count the enumeration would have produced,
        computed multiplicatively before any materialization.
    limit:
        The cap that was exceeded.
    """

    def __init__(self, topology: Topology, projected: int, limit: int) -> None:
        self.topology = topology
        self.projected = projected
        self.limit = limit
        super().__init__(
            f"tree state space for topology {topology.parents} exceeds "
            f"{limit} states (projected {projected}); reduce the "
            "topology's fan-out or depth, or solve through the lumped or "
            "iterative backend"
        )


@dataclasses.dataclass(frozen=True, order=True)
class TreeState:
    """``(consistent, slow)``: the consistent subtree and its slow frontier.

    ``consistent`` lists the non-root nodes holding the sender's current
    value (sorted); ``slow`` lists the frontier nodes whose installation
    message was lost and that now wait for the slow path (sorted).
    Frontier nodes not in ``slow`` have a message in flight.

    The hash is the generated one, ``hash((consistent, slow))``, computed
    once at construction: a chain state holds up to ``N`` node indices,
    and the reference chain and rate dict hash each state many times.
    """

    consistent: tuple[int, ...]
    slow: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.consistent, self.slow)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        consistent = ",".join(str(v) for v in self.consistent) or "-"
        slow = ",".join(str(v) for v in self.slow) or "-"
        return f"({{{consistent}}};{{{slow}}})"


class Recovery(enum.Enum):
    """Singleton recovery state ``F`` of the hard-state model (Fig. 16)."""

    RECOVERY = "F"

    def __str__(self) -> str:
        return "F"


RECOVERY = Recovery.RECOVERY


@functools.lru_cache(maxsize=1024)
def projected_tree_states(topology: Topology) -> int:
    """The exact tree state count, computed without materializing it.

    Pure integer arithmetic over ``f(v) = 2 + prod(f(children))``, the
    configurations of the edge into ``v`` (fast, slow, or crossed with
    every child-edge combination below), so pathological fan-outs are
    rejected in microseconds instead of after building multi-GB
    intermediate cross-product lists.  One backward pass over the nodes
    sees every child before its parent, so depth costs no recursion.
    Excludes the HS ``RECOVERY`` extra state.
    """
    crossed = [1] * topology.num_nodes
    for node in range(topology.num_edges, 0, -1):
        crossed[topology.parents[node - 1]] *= 2 + crossed[node]
    return crossed[0]


def tree_state_space(
    topology: Topology, with_recovery: bool, max_states: int | None = None
) -> tuple[object, ...]:
    """All states of the tree model, in the canonical order.

    States are sorted by (slow-frontier size, consistent-subtree size,
    consistent tuple, slow tuple); hard-state trees append ``RECOVERY``
    last.  On a chain this is the paper's order: the all-fast states
    ``(0,0)..(N,0)`` by consistent count, then the slow states
    ``(0,1)..(N-1,1)``, then ``RECOVERY``.

    ``max_states`` overrides the default :data:`MAX_TREE_STATES` cap
    (the iterative backend enumerates up to
    :data:`MAX_ENUMERATED_TREE_STATES`).  The cap is checked against
    :func:`projected_tree_states` *before* anything materializes;
    an overflow raises :class:`StateSpaceLimitError`.
    """
    return tree_space(topology, with_recovery, max_states).states


def tree_space(
    topology: Topology, with_recovery: bool, max_states: int | None = None
) -> StateSpace:
    """:func:`tree_state_space` with each state's frontier counts and
    consistent-node bitmask, one record per enumeration."""
    limit = MAX_TREE_STATES if max_states is None else max_states
    projected = projected_tree_states(topology)
    if projected > limit:
        raise StateSpaceLimitError(topology, projected, limit)
    return _enumerated_tree_states(topology, with_recovery)


def append_recovery(space: StateSpace) -> StateSpace:
    """``space`` with ``RECOVERY`` appended: no frontier, no consistent node."""
    fast, slow, consistent = (
        counts and counts + (0,) for counts in (space.fast, space.slow, space.consistent)
    )
    return StateSpace(
        space.states + (RECOVERY,), space.full, len(space.states), fast, slow, consistent
    )


@functools.lru_cache(maxsize=256)
def _enumerated_tree_states(topology: Topology, with_recovery: bool) -> StateSpace:
    """:func:`tree_space` past its cap check: one enumeration, and one
    set of state objects, per topology whatever cap the caller set (hard
    state appends ``RECOVERY`` to the soft-state space)."""
    if with_recovery:
        return append_recovery(_enumerated_tree_states(topology, False))
    # ``below[v]``: every ``(consistent, slow)`` contribution of the edge
    # into ``v`` once its parent is consistent — fast (in flight), slow
    # (lost), or crossed, each child edge then contributing
    # independently.  A backward pass builds each child's list before
    # its parent reads it, so depth costs no recursion.
    below: dict[int, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for node in range(topology.num_edges, -1, -1):
        crossed = [((node,), ())] if node else [((), ())]
        for child in topology.children(node):
            child_configurations = below.pop(child)
            crossed = [
                (consistent + child_consistent, slow + child_slow)
                for consistent, slow in crossed
                for child_consistent, child_slow in child_configurations
            ]
        below[node] = [((), ()), ((), (node,)), *crossed] if node else crossed
    configurations = below[0]
    # Sorted as plain tuples, the order of TreeState's own comparison.
    ordered = sorted(
        ((tuple(sorted(consistent)), tuple(sorted(slow))) for consistent, slow in configurations),
        key=lambda pair: (len(pair[1]), len(pair[0]), pair),
    )
    nodes = range(topology.num_nodes)
    bit = [1 << node for node in nodes]
    masks = tuple(sum(map(bit.__getitem__, consistent)) for consistent, _ in ordered)
    # The frontier: the children of the root and of every consistent
    # node (the set is downward closed), less the consistent nodes.
    fanout = [topology.fanout(node) for node in nodes]
    return StateSpace(
        tuple(TreeState(consistent, slow) for consistent, slow in ordered),
        full=masks.index((1 << topology.num_nodes) - 2),
        fast=tuple(
            fanout[0] + sum(map(fanout.__getitem__, c)) - len(c) - len(s) for c, s in ordered
        ),
        slow=tuple(len(slow) for _, slow in ordered),
        consistent=masks,
    )
