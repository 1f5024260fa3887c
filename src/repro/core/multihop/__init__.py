"""Multi-hop analytic models (paper §III-B), on chains and trees.

The paper's chain of ``N`` relays is the unary tree
``Topology.chain(N)``: :class:`TreeModel` solves it, with a per-hop
link profile for the heterogeneous chain.
"""

from repro.core.multihop.messages import (
    expected_link_crossings,
    tree_expected_link_crossings,
    tree_message_components,
)
from repro.core.multihop.heterogeneous import HeterogeneousHop, hops_from_parameters
from repro.core.multihop.lumping import (
    LumpedTreeModel,
    LumpedTreeSolution,
    LumpedTreeState,
    build_lumped_rates,
    lump_tree_state,
    lumped_state_space,
    lumped_transition_specs,
    projected_lumped_states,
    select_tree_backend,
)
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import (
    first_timeout_rate,
    slow_path_recovery_rate,
    supported_protocols,
)
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import (
    RECOVERY,
    Recovery,
    StateSpaceLimitError,
    TreeState,
    projected_tree_states,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import (
    build_tree_rates,
    tree_transition_specs,
)

__all__ = [
    "HeterogeneousHop",
    "hops_from_parameters",
    "LumpedTreeModel",
    "LumpedTreeSolution",
    "LumpedTreeState",
    "RECOVERY",
    "Recovery",
    "StateSpaceLimitError",
    "Topology",
    "TreeModel",
    "TreeSolution",
    "TreeState",
    "build_lumped_rates",
    "build_tree_rates",
    "expected_link_crossings",
    "first_timeout_rate",
    "lump_tree_state",
    "lumped_state_space",
    "lumped_transition_specs",
    "projected_lumped_states",
    "projected_tree_states",
    "select_tree_backend",
    "slow_path_recovery_rate",
    "supported_protocols",
    "tree_expected_link_crossings",
    "tree_message_components",
    "tree_state_space",
    "tree_transition_specs",
]
