"""The tree (multicast) analytic model and its leaf metrics.

:class:`TreeModel` generalizes :class:`~repro.core.multihop.model.MultiHopModel`
from linear chains to arbitrary rooted trees (:class:`Topology`): the
sender at the root floods state updates toward every leaf over
independent lossy edges.  The regime is the same stationary one —
state lives forever at the sender, Poisson updates at ``lambda_u``.

Metrics aggregate over leaves instead of "the last hop":

* ``inconsistency_ratio`` — *any* node inconsistent (``1 - pi(full)``,
  the all-leaf consistency complement; eq. 12 on a chain);
* ``leaf_inconsistency`` / ``reach_profile`` — per-leaf views;
* ``mean_leaf_inconsistency`` — the average receiver's experience;
* ``fanout_weighted_inconsistency`` — leaves weighted by their parent's
  fan-out, emphasizing hot replication points (one lost trigger at a
  wide splitter starves many receivers);
* ``message_rate`` — per-link transmissions per second.

On ``Topology.chain(N)`` every number is **bit-identical** to the
chain model: the state order, rate floats and metric summation orders
all reduce to the Fig. 15/16 construction (enforced by the
``unary==chain`` row of :data:`repro.validation.parity.REDUCTIONS`).
"""

from __future__ import annotations

import dataclasses

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.states import RECOVERY
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.tree_messages import tree_message_components
from repro.core.multihop.tree_states import TreeState, tree_state_space
from repro.core.multihop.tree_transitions import build_tree_rates
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol

__all__ = ["TreeModel", "TreeSolution"]


@dataclasses.dataclass(frozen=True)
class TreeSolution:
    """Solved metrics of one protocol on one tree configuration."""

    protocol: Protocol
    params: MultiHopParameters
    topology: Topology
    stationary: dict[object, float]
    message_breakdown: dict[str, float]

    @property
    def inconsistency_ratio(self) -> float:
        """Any node inconsistent: ``1 - pi(full tree consistent)``.

        Because the consistent set is downward-closed, "every leaf
        consistent" and "every node consistent" are the same event, so
        this is exactly the all-leaf consistency complement.
        """
        full = TreeState(tuple(range(1, self.topology.num_nodes)), ())
        return 1.0 - self.stationary.get(full, 0.0)

    @property
    def message_rate(self) -> float:
        """Total per-link transmissions per second."""
        return sum(self.message_breakdown.values())

    def node_inconsistency(self, node: int) -> float:
        """Fraction of time non-root ``node`` is inconsistent.

        A node is inconsistent whenever it is outside the consistent
        subtree; the HS recovery state counts for every node.  On a
        chain this is the paper's per-hop view (Fig. 17).
        """
        if not 1 <= node <= self.topology.num_edges:
            raise ValueError(
                f"node must be in [1, {self.topology.num_edges}], got {node}"
            )
        total = 0.0
        for state, probability in self.stationary.items():
            if state is RECOVERY:
                total += probability
            elif isinstance(state, TreeState) and node not in state.consistent:
                total += probability
        return total

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
        return sum(profile) / len(profile)

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
        weighted = sum(
            weight * self.leaf_inconsistency(leaf)
            for weight, leaf in zip(weights, leaves)
        )
        return weighted / sum(weights)

    def integrated_cost(self, weight: float = 10.0) -> float:
        """``weight * I + message_rate`` — the eq. (8) cost shape."""
        if weight < 0:
            raise ValueError(f"weight must be non-negative, got {weight}")
        return weight * self.inconsistency_ratio + self.message_rate


class TreeModel:
    """SS, SS+RT or HS signaling down one rooted tree.

    ``max_states`` raises the direct-enumeration cap (the iterative
    backend solves raw spaces up to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`);
    ``solver`` picks the chain's linear-algebra backend (``"auto"``,
    ``"dense"``, ``"sparse"`` or ``"iterative"``).  The constructor
    validates the point and checks the state-count cap; the chain is
    built on demand from the
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    list.
    """

    #: The solution type and the message accounting it is filled with.
    solution = TreeSolution
    messages = staticmethod(tree_message_components)

    def __init__(
        self,
        protocol: Protocol,
        params: MultiHopParameters,
        topology: Topology,
        max_states: int | None = None,
        solver: str = "auto",
    ) -> None:
        protocol = multihop_protocol(protocol)
        if params.hops != topology.num_edges:
            raise ValueError(
                f"params.hops ({params.hops}) must equal the topology's edge "
                f"count ({topology.num_edges}); bind them together when sweeping"
            )
        self.protocol = protocol
        self.params = params
        self.topology = topology
        self.max_states = max_states
        self.solver = solver
        self.state_space()

    def state_space(self) -> tuple[object, ...]:
        """The chain's states, in canonical order (the cap is checked here)."""
        return tree_state_space(self.topology, self.protocol is Protocol.HS, self.max_states)

    def transition_rates(self) -> dict[tuple[object, object], float]:
        """The chain's transition rates."""
        return build_tree_rates(self.protocol, self.params, self.topology, self.max_states)

    def chain(self) -> ContinuousTimeMarkovChain:
        """The recurrent tree CTMC."""
        return ContinuousTimeMarkovChain(
            self.state_space(), self.transition_rates(), solver=self.solver
        )

    def solution_from_stationary(
        self, stationary: dict[object, float]
    ) -> TreeSolution:
        """Wrap an externally computed stationary distribution.

        The runtime's hardened solve path (``solve_chain_stationary``
        with its logged fallback chain) computes the distribution
        itself and hands it back here for the message accounting.
        """
        return self.solution(
            protocol=self.protocol,
            params=self.params,
            topology=self.topology,
            stationary=stationary,
            message_breakdown=self.messages(self.protocol, self.params, self.topology, stationary),
        )

    def solve(self) -> TreeSolution:
        """Compute the stationary distribution and message rates."""
        return self.solution_from_stationary(self.chain().stationary_distribution())
