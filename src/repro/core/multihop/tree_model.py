"""The multi-hop analytic model (paper §III-B) on any rooted tree.

:class:`TreeModel` solves the stationary-update regime — state lives
forever at the sender (``mu_r -> 0``) and Poisson updates at
``lambda_u`` must propagate — down a rooted tree (:class:`Topology`):
the sender at the root floods state updates toward every leaf over
independent lossy edges.  The paper's Fig. 15/16 chain of ``N`` relays
is the unary tree ``Topology.chain(N)``, on which the states, rates and
metrics are the paper's; with a per-hop link profile (``links``) the
chain is the heterogeneous one of
:mod:`repro.core.multihop.heterogeneous`.

Metrics aggregate over leaves instead of "the last hop":

* ``inconsistency_ratio`` — *any* node inconsistent (``1 - pi(full)``,
  the all-leaf consistency complement; eq. 12 on a chain);
* ``node_inconsistency`` / ``hop_profile`` — per-node views (Fig. 17's
  per-hop profile on a chain);
* ``leaf_inconsistency`` / ``reach_profile`` — per-leaf views;
* ``mean_leaf_inconsistency`` — the average receiver's experience;
* ``fanout_weighted_inconsistency`` — leaves weighted by their parent's
  fan-out, emphasizing hot replication points (one lost trigger at a
  wide splitter starves many receivers);
* ``message_rate`` — per-link transmissions per second (eqs. 13-17).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Sequence

from repro.core.markov import (
    ContinuousTimeMarkovChain,
    RowSolution,
    StateSpace,
    ordered_sum,
    spec_rates,
    spec_tags,
)
from repro.core.multihop.heterogeneous import (
    HeterogeneousHop,
    heterogeneous_message_components,
    heterogeneous_tag_rates,
)
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.messages import tree_message_components
from repro.core.multihop.tree_states import tree_space
from repro.core.multihop.tree_transitions import tree_tag_rates, tree_transition_specs
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = ["NodeViews", "TreeModel", "TreeSolution"]


class NodeViews:
    """Per-node views of a row over raw tree states or their Gilbert
    product, read off each state's consistent-node bitmask."""

    def node_inconsistency(self, node: int) -> float:
        """Fraction of time non-root ``node`` is inconsistent.

        A node is inconsistent whenever it is outside the consistent
        subtree; the HS recovery state counts for every node.  On a
        chain this is the paper's per-hop view (Fig. 17).
        """
        if not 1 <= node <= self.params.hops:
            raise ValueError(f"node must be in [1, {self.params.hops}], got {node}")
        return self._inconsistent_mass[node]

    @functools.cached_property
    def _inconsistent_mass(self) -> list[float]:
        """Every node's inconsistent mass, from one pass over the row:
        node ``v`` adds, in state order, the mass of each state whose
        bitmask lacks bit ``v`` (``RECOVERY``'s is 0)."""
        totals = [0.0] * (self.params.hops + 1)
        nodes = (1 << self.params.hops + 1) - 2
        for probability, mask in zip(self.row, self.space.consistent):
            outside = nodes & ~mask
            while outside:
                bit = outside & -outside
                outside ^= bit
                totals[bit.bit_length() - 1] += probability
        return totals

    def hop_profile(self) -> list[float]:
        """:meth:`node_inconsistency` of every non-root node, in node order."""
        return [self.node_inconsistency(node) for node in range(1, self.params.hops + 1)]


@dataclasses.dataclass(frozen=True)
class TreeSolution(NodeViews, RowSolution):
    """Solved metrics of one protocol on one tree configuration."""

    protocol: Protocol
    params: MultiHopParameters
    topology: Topology
    row: Sequence[float]
    space: StateSpace = dataclasses.field(repr=False, compare=False)
    message_breakdown: dict[str, float]

    @property
    def inconsistency_ratio(self) -> float:
        """Any node inconsistent: ``1 - pi(full tree consistent)``.

        Because the consistent set is downward-closed, "every leaf
        consistent" and "every node consistent" are the same event, so
        this is exactly the all-leaf consistency complement.
        """
        return 1.0 - self.row[self.space.full]

    def leaf_inconsistency(self, leaf: int) -> float:
        """Fraction of time the given leaf is inconsistent."""
        if leaf not in self.topology.leaves():
            raise ValueError(f"{leaf} is not a leaf of the topology")
        return self.node_inconsistency(leaf)

    def leaf_profile(self) -> list[float]:
        """Per-leaf inconsistency, in leaf index order."""
        return [self.leaf_inconsistency(leaf) for leaf in self.topology.leaves()]

    def reach_profile(self) -> list[float]:
        """Per-leaf reach, in leaf index order."""
        return [1.0 - value for value in self.leaf_profile()]

    @property
    def mean_leaf_inconsistency(self) -> float:
        """Average per-leaf inconsistency (each receiver equal weight)."""
        profile = self.leaf_profile()
        return ordered_sum(profile) / len(profile)

    @property
    def fanout_weighted_inconsistency(self) -> float:
        """Leaf inconsistency weighted by the parent's fan-out.

        A leaf behind a ``k``-way replication point counts ``k`` times:
        the metric surfaces the cost of losing state at hot splitters,
        which uniform leaf averaging dilutes.  On a chain (all weights
        1) it equals the last hop's inconsistency.
        """
        leaves = self.topology.leaves()
        weights = [float(self.topology.fanout(self.topology.parent(leaf))) for leaf in leaves]
        weighted = ordered_sum(
            weight * self.leaf_inconsistency(leaf) for weight, leaf in zip(weights, leaves)
        )
        return weighted / ordered_sum(weights)

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``weight * I + message_rate`` — the eq. (8) cost shape."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        return weight * self.inconsistency_ratio + self.message_rate


class TreeModel:
    """SS, SS+RT or HS signaling down one rooted tree.

    ``links`` gives a unary topology (a chain) one
    :class:`~repro.core.multihop.heterogeneous.HeterogeneousHop` per
    edge, the edge into node ``v`` being ``links[v - 1]``; without it
    every link has ``params``' loss and delay.  ``max_states`` raises
    the direct-enumeration cap (the iterative backend solves raw spaces
    up to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`);
    ``solver`` picks the chain's linear-algebra backend (``"auto"``,
    ``"dense"``, ``"sparse"`` or ``"iterative"``).  The constructor
    validates the point and checks the state-count cap; the chain is
    built on demand from the
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    list and :meth:`tag_rates`.
    """

    #: The solution type the model wraps a solved row in.
    solution = TreeSolution

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        topology: Topology,
        links: Sequence[HeterogeneousHop] | None = None,
        max_states: int | None = None,
        solver: str = "auto",
    ) -> None:
        protocol = multihop_protocol(protocol)
        if params.hops != topology.num_edges:
            raise ValueError(
                f"params.hops ({params.hops}) must equal the topology's edge "
                f"count ({topology.num_edges}); bind them together when sweeping"
            )
        if links is not None:
            if not topology.is_chain:
                raise ValueError(
                    f"a link profile needs a chain topology, got {topology.parents}"
                )
            if len(links) != params.hops:
                raise ValueError(f"hop vector length {len(links)} != params.hops {params.hops}")
            links = tuple(links)
        self.protocol = protocol
        self.params = params
        self.topology = topology
        self.links = links
        self.max_states = max_states
        self.solver = solver
        self.space = self._enumerate()

    def _enumerate(self) -> StateSpace:
        """The chain's state space (the cap is checked here)."""
        return tree_space(self.topology, self.protocol is Protocol.HS, self.max_states)

    def tag_rates(self, tags) -> list[float]:
        """The point's rate of each transition tag in ``tags``."""
        if self.links is not None:
            return heterogeneous_tag_rates(self.protocol, self.params, self.links, tags)
        return tree_tag_rates(self.protocol, self.params, self.topology, tags)

    def transition_rates(self) -> dict[tuple[object, object], float]:
        """The chain's transition rates."""
        specs = tree_transition_specs(self.protocol, self.topology, self.max_states)
        tags = spec_tags(specs)
        return spec_rates(specs, dict(zip(tags, self.tag_rates(tags))))

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent tree CTMC."""
        return ContinuousTimeMarkovChain(
            self.space.states, self.transition_rates(), solver=self.solver
        )

    def solution_from_row(self, row) -> TreeSolution:
        """Wrap a solved row, the stationary mass of each state in
        canonical order, with its per-link message rates."""
        if self.links is None:
            messages = tree_message_components(
                self.protocol, self.params, self.topology, row, self.space
            )
        else:
            messages = heterogeneous_message_components(
                self.protocol, self.params, self.links, row, self.space
            )
        return self.solution(
            protocol=self.protocol,
            params=self.params,
            topology=self.topology,
            row=row,
            space=self.space,
            message_breakdown=messages,
        )

    def solution_from_stationary(self, stationary) -> TreeSolution:
        """Wrap an externally computed stationary distribution.

        The runtime's hardened solve path (``solve_chain_stationary``
        with its logged fallback chain) computes the distribution
        itself and hands it back here for the message accounting.
        """
        return self.solution_from_row([stationary[state] for state in self.space.states])

    def solve(self) -> TreeSolution:
        """Compute the stationary distribution and message rates."""
        return self.solution_from_stationary(self.chain().stationary_distribution())
