"""States of the tree (multicast) signaling Markov model.

The chain model tracks a single installation frontier — ``(i, s)``:
``i`` consistent hops, fast or slow path.  On a tree the frontier is a
*set* of edges: the nodes holding the sender's current value always
form a downward-closed subtree ``S`` containing the root (a node can
only have received the value through its parent), and each *frontier*
node — a node outside ``S`` whose parent is inside — is reached either
by an in-flight message (fast) or waits for a refresh/retransmission
after a loss (slow).

:class:`TreeState` records ``(consistent, slow)``: the non-root members
of ``S`` and the slow subset of the frontier (the fast frontier is
implied).  On a unary chain this reduces exactly to the paper's state
space — ``(i, 0)`` is ``consistent = (1..i), slow = ()`` and ``(i, 1)``
is ``consistent = (1..i), slow = (i+1,)`` — and
:func:`tree_state_space` orders states so the unary enumeration matches
:func:`~repro.core.multihop.states.multihop_state_space` position by
position, which is what makes unary-tree solves *bit-identical* to the
chain model.  Hard-state trees reuse the chain's
:data:`~repro.core.multihop.states.RECOVERY` singleton.

State counts are exponential in fan-out × depth, so enumeration is
guarded: :func:`projected_tree_states` computes the exact count
*multiplicatively* — cheap integer arithmetic, no intermediate lists —
and an overflow raises :class:`StateSpaceLimitError` (a ``ValueError``
subclass carrying the topology signature and the projected count)
*before* any cross-product materializes.  The scale backends
(:mod:`repro.core.multihop.lumping`, the iterative sparse solver)
catch the typed error to reroute instead of string-matching.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.core.multihop.states import RECOVERY
from repro.core.multihop.topology import Topology

__all__ = [
    "MAX_ENUMERATED_TREE_STATES",
    "MAX_TREE_STATES",
    "StateSpaceLimitError",
    "TreeState",
    "projected_tree_states",
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
    """

    consistent: tuple[int, ...]
    slow: tuple[int, ...]

    def __str__(self) -> str:
        consistent = ",".join(str(v) for v in self.consistent) or "-"
        slow = ",".join(str(v) for v in self.slow) or "-"
        return f"({{{consistent}}};{{{slow}}})"


@functools.lru_cache(maxsize=1024)
def _projected_edge_configurations(topology: Topology, node: int) -> int:
    """Exact configuration count of the edge into ``node``: fast, slow,
    or crossed with every child-edge combination below."""
    crossed = 1
    for child in topology.children(node):
        crossed *= _projected_edge_configurations(topology, child)
    return 2 + crossed


@functools.lru_cache(maxsize=1024)
def projected_tree_states(topology: Topology) -> int:
    """The exact tree state count, computed without materializing it.

    Pure integer arithmetic over the recursion
    ``f(v) = 2 + prod(f(children))``, so pathological fan-outs are
    rejected in microseconds instead of after building multi-GB
    intermediate cross-product lists.  Excludes the HS ``RECOVERY``
    extra state.
    """
    total = 1
    for child in topology.children(0):
        total *= _projected_edge_configurations(topology, child)
    return total


def _edge_configurations(
    topology: Topology, node: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ``(consistent, slow)`` contributions of the edge into ``node``.

    Assumes the parent of ``node`` is consistent, so the edge is live:
    it is fast (in flight), slow (lost), or crossed — and once crossed,
    each child edge of ``node`` contributes independently.
    """
    results: list[tuple[tuple[int, ...], tuple[int, ...]]] = [
        ((), ()),  # fast frontier: nothing below node is consistent
        ((), (node,)),  # slow frontier
    ]
    crossed: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((node,), ())]
    for child in topology.children(node):
        child_configurations = _edge_configurations(topology, child)
        crossed = [
            (consistent + child_consistent, slow + child_slow)
            for consistent, slow in crossed
            for child_consistent, child_slow in child_configurations
        ]
    results.extend(crossed)
    return results


def tree_state_space(
    topology: Topology, with_recovery: bool, max_states: int | None = None
) -> tuple[object, ...]:
    """All states of the tree model, in the canonical order.

    States are sorted by (slow-frontier size, consistent-subtree size,
    consistent tuple, slow tuple); hard-state trees append ``RECOVERY``
    last.  On a unary chain this reproduces the
    :func:`~repro.core.multihop.states.multihop_state_space` order
    exactly: the all-fast states ``(0,0)..(N,0)`` by consistent count,
    then the slow states ``(0,1)..(N-1,1)``, then ``RECOVERY``.

    ``max_states`` overrides the default :data:`MAX_TREE_STATES` cap
    (the iterative backend enumerates up to
    :data:`MAX_ENUMERATED_TREE_STATES`).  The cap is checked against
    :func:`projected_tree_states` *before* anything materializes;
    an overflow raises :class:`StateSpaceLimitError`.
    """
    limit = MAX_TREE_STATES if max_states is None else max_states
    projected = projected_tree_states(topology)
    if projected > limit:
        raise StateSpaceLimitError(topology, projected, limit)
    return _enumerated_tree_states(topology, with_recovery)


@functools.lru_cache(maxsize=256)
def _enumerated_tree_states(topology: Topology, with_recovery: bool) -> tuple[object, ...]:
    """:func:`tree_state_space` past its cap check: one enumeration, and
    one set of state objects, per space whatever cap the caller set."""
    configurations: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for child in topology.children(0):
        child_configurations = _edge_configurations(topology, child)
        configurations = [
            (consistent + child_consistent, slow + child_slow)
            for consistent, slow in configurations
            for child_consistent, child_slow in child_configurations
        ]
    tree_states = sorted(
        TreeState(tuple(sorted(consistent)), tuple(sorted(slow)))
        for consistent, slow in configurations
    )
    tree_states.sort(key=lambda s: (len(s.slow), len(s.consistent)))
    states: list[object] = list(tree_states)
    if with_recovery:
        states.append(RECOVERY)
    return tuple(states)
