"""Family adapters for transient analysis.

Each adapter presents one analytic model family through the same small
surface the piecewise driver needs:

* ``nominal_chain()`` — the family's CTMC with every link up;
* ``consistent_index`` — the state meaning "every receiver holds the
  sender's current value";
* ``initial_vector(initial)`` — a start distribution: ``"empty"``
  (nothing installed, the first trigger just left the sender) or
  ``"stationary"`` (the nominal chain's stationary distribution, i.e.
  a system warmed up before the fault hits);
* ``degraded_chain(down_links)`` — the same state space with the named
  links down (messages across them are lost with probability 1);
* ``crash_projection(node)`` — an instantaneous state-index mapping
  applied when ``node`` loses its installed state.

Degradation semantics per family:

* **single-hop** — the one link down is a rebuild at ``loss_rate=1``
  (the parameter space admits it; the Gilbert-Elliott bad state uses
  the same regime).  A receiver crash projects installed-state states
  onto their state-lost counterparts.
* **chain** — the tree model on ``Topology.chain(N)``.  Link ``l`` down
  is the chain's link profile with hop ``l``'s loss pinned to 1; every
  profile in :mod:`repro.core.multihop.heterogeneous` is well defined
  there (reach hits 0, recovery and fast-path rates vanish, the first
  timeout concentrates at the cut).  Crashes are supported for the
  *last* node only: the chain state space is a prefix abstraction, and
  a crash at an interior node would leave downstream nodes holding
  stale-but-equal state the prefix cannot represent.  The projection
  sends every state holding node ``N`` to consistent ``{1..N-1}``,
  slow ``{N}``.
* **tree** — link ``c`` down (the edge into child ``c``) is rate
  surgery on the nominal generator: every transition that grows the
  consistent set by ``c`` is removed.  Expiry rates keep their nominal
  values, so the degraded tree is a *lower bound* on degradation (see
  ``docs/transient.md``).  Tree crashes are not supported.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.multihop.heterogeneous import hops_from_parameters
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_model import TreeModel
from repro.core.multihop.tree_states import TreeState
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.model import SingleHopModel
from repro.core.singlehop.states import SingleHopState as S

__all__ = [
    "ChainTransientModel",
    "SingleHopTransientModel",
    "TreeTransientModel",
    "transient_model",
]

_INITIALS = ("empty", "stationary")


@dataclasses.dataclass(frozen=True)
class _DegradedHop:
    """A duck-typed hop with the full loss the validated class rejects.

    :class:`~repro.core.multihop.heterogeneous.HeterogeneousHop`
    enforces ``loss_rate < 1`` for stationary solves (a cut chain has
    no stationary distribution over the full space); the transient
    rate builders are total at ``loss_rate = 1``, which is exactly the
    downed-link semantics.
    """

    loss_rate: float
    delay: float


class _TransientModelBase:
    """Shared vector helpers over a family's fixed state order."""

    def _init_caches(self) -> None:
        self._nominal: ContinuousTimeMarkovChain | None = None
        self._degraded: dict[tuple[int, ...], ContinuousTimeMarkovChain] = {}

    def nominal_chain(self) -> ContinuousTimeMarkovChain:
        if self._nominal is None:
            self._nominal = self._build_nominal()
        return self._nominal

    def degraded_chain(self, down_links: tuple[int, ...]) -> ContinuousTimeMarkovChain:
        key = tuple(down_links)
        if key not in self._degraded:
            self._degraded[key] = self._build_degraded(key)
        return self._degraded[key]

    def states(self) -> tuple:
        return self.nominal_chain().states

    @property
    def consistent_index(self) -> int:
        return self.states().index(self.consistent_state)

    def initial_vector(self, initial: str) -> np.ndarray:
        if initial not in _INITIALS:
            raise ValueError(f"initial must be one of {_INITIALS}, got {initial!r}")
        states = self.states()
        vector = np.zeros(len(states))
        if initial == "empty":
            vector[states.index(self.empty_state)] = 1.0
            return vector
        stationary = self.nominal_chain().stationary_distribution()
        for i, state in enumerate(states):
            vector[i] = stationary[state]
        return vector

    def _projection_vector(self, mapping: dict) -> tuple[int, ...]:
        """State-index mapping ``origin -> destination`` as a tuple."""
        states = self.states()
        index = {state: i for i, state in enumerate(states)}
        return tuple(
            index[mapping.get(state, state)] for state in states
        )


class SingleHopTransientModel(_TransientModelBase):
    """Transient adapter over the Fig. 3 single-hop chain."""

    def __init__(self, protocol: Protocol, params: SignalingParameters) -> None:
        self.protocol = Protocol(protocol)
        self.params = params
        self.consistent_state = S.CONSISTENT
        self.empty_state = S.S10_FAST
        self._init_caches()

    def _build_nominal(self) -> ContinuousTimeMarkovChain:
        return SingleHopModel(self.protocol, self.params).recurrent_chain()

    def _build_degraded(self, down_links: tuple[int, ...]) -> ContinuousTimeMarkovChain:
        if tuple(down_links) != (1,):
            raise ValueError(
                f"single-hop has exactly one link (1); got down_links={down_links}"
            )
        degraded = SingleHopModel(
            self.protocol, self.params.replace(loss_rate=1.0)
        ).recurrent_chain()
        if degraded.states != self.states():
            raise AssertionError("degraded single-hop chain changed the state space")
        return degraded

    def crash_projection(self, node: int) -> tuple[int, ...]:
        """Receiver crash: installed state vanishes, the sender's view stays.

        ``CONSISTENT``/``IC`` collapse onto the sender-installed,
        receiver-empty states; sender-removed states lose their last
        installed copy and renew (the recurrent chain merges ``(0,0)``
        into the session start).
        """
        if node != 1:
            raise ValueError(f"single-hop has exactly one receiver (node 1), got {node}")
        mapping = {
            S.CONSISTENT: S.S10_SLOW,
            S.IC_FAST: S.S10_FAST,
            S.IC_SLOW: S.S10_SLOW,
            S.S01_FAST: S.S10_FAST,
            S.S01_SLOW: S.S10_FAST,
        }
        return self._projection_vector(mapping)

    def link_into(self, node: int) -> int:
        return 1


class TreeTransientModel(_TransientModelBase):
    """Transient adapter over the multicast tree model."""

    def __init__(
        self, protocol: Protocol, params: MultiHopParameters, topology: Topology
    ) -> None:
        self.protocol = Protocol(protocol)
        self.params = params
        self.topology = topology
        self.consistent_state = TreeState(
            tuple(range(1, topology.num_nodes)), ()
        )
        self.empty_state = TreeState((), ())
        self._init_caches()

    def _build_nominal(self) -> ContinuousTimeMarkovChain:
        return TreeModel(self.protocol, self.params, self.topology).chain()

    def _build_degraded(self, down_links: tuple[int, ...]) -> ContinuousTimeMarkovChain:
        """Rate surgery: consistency cannot grow through a downed edge.

        A tree link is named by its child node.  Every transition whose
        destination adds a downed child to the consistent set is
        removed; all other rates (including expiries) keep their
        nominal values, so the degraded tree under-states decay — a
        documented approximation, unlike the exact chain degradation.
        """
        down = set(down_links)
        children = set(range(1, self.topology.num_nodes))
        if not down or not down.issubset(children):
            raise ValueError(
                f"down_links must name child nodes in 1..{self.topology.num_nodes - 1}, "
                f"got {down_links}"
            )
        nominal = self.nominal_chain()
        rates = {}
        for (origin, destination), rate in nominal.rates.items():
            if isinstance(origin, TreeState) and isinstance(destination, TreeState):
                gained = set(destination.consistent) - set(origin.consistent)
                if gained & down:
                    continue
            rates[(origin, destination)] = rate
        return ContinuousTimeMarkovChain(nominal.states, rates)

    def crash_projection(self, node: int) -> tuple[int, ...]:
        raise ValueError(
            "tree node crashes have no transient model: losing an interior "
            "subtree's state is not expressible as a projection on the "
            "downward-closed tree state space (see docs/transient.md)"
        )

    def link_into(self, node: int) -> int:
        return node


class ChainTransientModel(TreeTransientModel):
    """Transient adapter over the Figs. 15/16 multi-hop chain, the tree
    model on ``Topology.chain(N)``, whose links go down exactly."""

    def __init__(self, protocol: Protocol, params: MultiHopParameters) -> None:
        super().__init__(protocol, params, Topology.chain(params.hops))

    def _build_degraded(self, down_links: tuple[int, ...]) -> ContinuousTimeMarkovChain:
        down = set(down_links)
        if not down or not down.issubset(range(1, self.params.hops + 1)):
            raise ValueError(
                f"down_links must name links in 1..{self.params.hops}, got {down_links}"
            )
        links = tuple(
            _DegradedHop(1.0, hop.delay) if i + 1 in down else hop
            for i, hop in enumerate(hops_from_parameters(self.params))
        )
        return TreeModel(self.protocol, self.params, self.topology, links).chain()

    def crash_projection(self, node: int) -> tuple[int, ...]:
        """Last-node crash: the deepest installed state is lost.

        Only ``node == N`` is representable: the chain state is a
        consistent *prefix*, so losing state at an interior node would
        need "stale but equal downstream" states the space lacks.
        """
        n = self.params.hops
        if node != n:
            raise ValueError(
                f"chain crashes are supported for the last node only (node {n}); "
                f"got node {node} — interior crashes leave downstream state the "
                "prefix abstraction cannot represent"
            )
        lost = TreeState(tuple(range(1, n)), (n,))
        mapping = {
            state: lost
            for state in self.states()
            if isinstance(state, TreeState) and n in state.consistent
        }
        return self._projection_vector(mapping)


def transient_model(
    protocol: Protocol,
    params: SignalingParameters | MultiHopParameters,
    topology: Topology | None = None,
):
    """The family adapter implied by the parameter type and topology."""
    if topology is not None:
        if not isinstance(params, MultiHopParameters):
            raise TypeError("tree transient models need MultiHopParameters")
        return TreeTransientModel(protocol, params, topology)
    if isinstance(params, MultiHopParameters):
        return ChainTransientModel(protocol, params)
    if isinstance(params, SignalingParameters):
        return SingleHopTransientModel(protocol, params)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")
