"""Rooted-tree topologies: the multicast generalization of the chain.

The paper's multi-hop analysis (§III-B) models a *linear* chain of
relays.  Gossip-style soft-state dissemination (PAPERS.md, Femminella
et al.) distributes the same signaling state down a multicast tree: the
sender at the root, receivers at the leaves, and every edge an
independent lossy hop.  :class:`Topology` describes such a rooted tree;
the chain is the degenerate unary tree (:meth:`Topology.chain`), on
which the tree state/transition construction in
:mod:`repro.core.multihop.tree_states` /
:mod:`repro.core.multihop.tree_transitions` is the Fig. 15/16 chain
model.

Nodes are integers: node 0 is the root (the sender); node ``v >= 1``
hangs below ``parents[v - 1] < v``, so the node order is topological
(parents before children) and every shape has one canonical encoding
per labeling.
"""

from __future__ import annotations

import dataclasses
import functools

__all__ = ["Topology"]


@dataclasses.dataclass(frozen=True)
class Topology:
    """A rooted tree given by the parent of each non-root node.

    ``parents[i]`` is the parent of node ``i + 1`` and must be a node
    index strictly below ``i + 1`` (the root is node 0).  Use the
    shape constructors for the common cases:

    >>> Topology.chain(3).parents          # 0 - 1 - 2 - 3
    (0, 1, 2)
    >>> Topology.star(3).parents           # three leaves under the root
    (0, 0, 0)
    >>> Topology.kary(2, 2).num_leaves     # complete binary, depth 2
    4
    >>> Topology.chain(5).is_chain
    True
    """

    parents: tuple[int, ...]

    def __post_init__(self) -> None:
        parents = tuple(int(p) for p in self.parents)
        object.__setattr__(self, "parents", parents)
        if not parents:
            raise ValueError("a topology needs at least one edge")
        for child0, parent in enumerate(parents):
            if not 0 <= parent <= child0:
                raise ValueError(
                    f"node {child0 + 1} has parent {parent}; parents must be "
                    "existing lower-numbered nodes (root is 0)"
                )

    # -- sizes ----------------------------------------------------------

    @property
    def num_edges(self) -> int:
        """Edge count — also the number of non-root nodes (receivers)."""
        return len(self.parents)

    @property
    def num_nodes(self) -> int:
        """Node count, root included."""
        return len(self.parents) + 1

    @property
    def num_leaves(self) -> int:
        """Number of leaf nodes."""
        return len(self.leaves())

    # -- structure ------------------------------------------------------

    def parent(self, node: int) -> int:
        """The parent of a non-root node."""
        if not 1 <= node <= self.num_edges:
            raise ValueError(f"node must be in [1, {self.num_edges}], got {node}")
        return self.parents[node - 1]

    @functools.cached_property
    def _children(self) -> tuple[tuple[int, ...], ...]:
        table: list[list[int]] = [[] for _ in range(self.num_nodes)]
        for child0, parent in enumerate(self.parents):
            table[parent].append(child0 + 1)
        return tuple(tuple(children) for children in table)

    def children(self, node: int) -> tuple[int, ...]:
        """The children of ``node``, in index order."""
        return self._children[node]

    def fanout(self, node: int) -> int:
        """The number of children of ``node``."""
        return len(self._children[node])

    @functools.cached_property
    def _depths(self) -> tuple[int, ...]:
        depths = [0] * self.num_nodes
        for child0, parent in enumerate(self.parents):
            depths[child0 + 1] = depths[parent] + 1
        return tuple(depths)

    def depth(self, node: int) -> int:
        """Hops from the root to ``node`` (the root has depth 0)."""
        return self._depths[node]

    @property
    def max_depth(self) -> int:
        """The depth of the deepest node."""
        return max(self._depths)

    def leaves(self) -> tuple[int, ...]:
        """All childless nodes, in index order."""
        return tuple(
            node for node in range(self.num_nodes) if not self._children[node]
        )

    def subtree(self, node: int) -> tuple[int, ...]:
        """``node`` and every descendant, in index order."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node must be in [0, {self.num_nodes}), got {node}")
        members = {node}
        # Topological node order: one forward pass finds all descendants.
        for child0, parent in enumerate(self.parents):
            if parent in members:
                members.add(child0 + 1)
        return tuple(sorted(members))

    @property
    def is_chain(self) -> bool:
        """Whether this tree is the degenerate unary chain."""
        return self.parents == tuple(range(self.num_edges))

    # -- shape constructors ---------------------------------------------

    @classmethod
    def chain(cls, hops: int) -> "Topology":
        """The paper's linear chain of ``hops`` links."""
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        return cls(tuple(range(hops)))

    @classmethod
    def star(cls, leaves: int) -> "Topology":
        """``leaves`` receivers directly under the root (fan-out N)."""
        if leaves < 1:
            raise ValueError(f"leaves must be >= 1, got {leaves}")
        return cls((0,) * leaves)

    @classmethod
    def broom(cls, handle: int, leaves: int) -> "Topology":
        """A chain of ``handle`` links ending in a ``leaves``-way fan-out.

        Models an access path followed by a replication point — the
        minimal shape mixing depth and fan-out.
        """
        if handle < 1:
            raise ValueError(f"handle must be >= 1, got {handle}")
        if leaves < 1:
            raise ValueError(f"leaves must be >= 1, got {leaves}")
        parents = list(range(handle))
        parents.extend([handle] * leaves)
        return cls(tuple(parents))

    @classmethod
    def kary(cls, fanout: int, depth: int) -> "Topology":
        """The complete ``fanout``-ary tree of the given edge depth.

        ``kary(1, d)`` is the ``d``-hop chain; ``kary(2, d)`` the
        complete binary tree.
        """
        if fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {fanout}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        parents: list[int] = []
        frontier = [0]
        next_node = 1
        for _ in range(depth):
            next_frontier: list[int] = []
            for node in frontier:
                for _ in range(fanout):
                    parents.append(node)
                    next_frontier.append(next_node)
                    next_node += 1
            frontier = next_frontier
        return cls(tuple(parents))

    @classmethod
    def skewed(cls, depth: int) -> "Topology":
        """A caterpillar: a ``depth``-link backbone with one extra leaf
        at every internal backbone node.

        The maximally unbalanced binary shape — one long path plus
        shallow side leaves — contrasting the complete ``kary(2, d)``
        tree at equal depth.  ``skewed(1)`` is the single-hop chain.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        parents: list[int] = []
        backbone = 0
        next_node = 1
        for level in range(depth):
            parents.append(backbone)
            child = next_node
            next_node += 1
            if level < depth - 1:
                # A side leaf under the *new* backbone node.
                parents.append(child)
                next_node += 1
            backbone = child
        return cls(tuple(parents))

    # -- rendering ------------------------------------------------------

    def describe(self) -> str:
        """ASCII rendering of the tree (for docs and debugging)."""
        lines: list[str] = []

        def render(node: int, prefix: str, tail: bool) -> None:
            label = "sender" if node == 0 else f"node {node}"
            if node == 0:
                lines.append(label)
            else:
                lines.append(f"{prefix}{'`-- ' if tail else '|-- '}{label}")
            children = self._children[node]
            child_prefix = prefix if node == 0 else prefix + ("    " if tail else "|   ")
            for i, child in enumerate(children):
                render(child, child_prefix, i == len(children) - 1)

        render(0, "", True)
        return "\n".join(lines)
