"""Multi-hop simulation (extends the paper's validation to §III-B and
to multicast distribution trees): one per-edge harness over a rooted
topology, with the chain as its unary tree."""

from repro.multihop.chain import (
    MultiHopSimResult,
    MultiHopSimulation,
    simulate_multihop_replications,
)
from repro.multihop.config import MultiHopSimConfig
from repro.multihop.tree import (
    TreeRelayNode,
    TreeSender,
    TreeSimResult,
    TreeSimulation,
    simulate_tree_replications,
)

__all__ = [
    "MultiHopSimConfig",
    "MultiHopSimResult",
    "MultiHopSimulation",
    "TreeRelayNode",
    "TreeSender",
    "TreeSimResult",
    "TreeSimulation",
    "simulate_tree_replications",
    "simulate_multihop_replications",
]
