"""Compiled chain templates: structure-cached, batched CTMC solves.

Every figure in the paper sweeps parameters over a chain whose
*structure* (state space and transition graph) is fixed by a model
family's discrete inputs (the protocol, plus the hop count, tree
topology or channel model) while only the rates vary.  Every family
writes that structure once, as a spec list of ``(origin, destination,
tag[, multiplicity])`` edges, next to one per-point rate function and a
reference model (:mod:`repro.core.singlehop`, :mod:`repro.core.multihop`,
:mod:`repro.core.gilbert`) that accumulates its rate dict from the two
with :func:`~repro.core.markov.spec_rates`.  A template compiles the spec
list once, and one private base class, :class:`_CompiledTemplate`, runs
everything after that:

* the COO compile: integer ``rows``/``cols`` over the fixed state
  order, plus, for each edge, the slot of the per-point *derived-rate
  row* its rate comes from (times an integer multiplicity on lumped
  orbits);
* ``edge_rates``: the ``(K, E)`` edge-rate matrix, gathered from the
  ``(K, F)`` derived rows by numpy fancy-indexing (no per-point dict
  churn);
* the stationary solve: one stacked LAPACK call for all K points below
  :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states; above it, a
  per-point numeric ``splu`` (or ILU/GMRES for the iterative tree
  backend) on the :class:`~repro.core.markov.SparseStationarySystem` of
  the point's positive-rate edges, compiled once per zero mask;
* ``solve_batch``: each solved row is wrapped by the point's reference
  model (``solution_from_row``), and any point the batch cannot
  certify (singular matrix, residual check, non-finite result) is
  re-solved by that model, so failure diagnostics are exactly the
  reference's.

A family's template compiles its spec list, one derived slot per
distinct tag, and supplies two hooks: ``_model(point)`` checks the point
against the compiled structure and returns the point's reference model,
whose constructor validates the rest; ``_derived(model)`` returns the
point's whole derived-rate row from the family's rate function.  The
paper's relay chain is the tree template on ``Topology.chain(N)``, which
also feeds the O(hops) structured kernel.

Each edge rate is the reference's own float, scattered in the
reference's accumulation order, and the stacked ``numpy.linalg.solve``
runs the same ``dgesv`` as the per-point dense path, so dense batches
reproduce the per-point dense results **bit for bit**, not merely
within tolerance.  Above the threshold the template solves the very
sparse system the reference chain builds from its rate dict, so it
matches the reference bit for bit there as well.
"""

from __future__ import annotations

import functools
import logging
import operator
from collections.abc import Sequence

import numpy as np

from repro.core import markov as _markov
from repro.core.gilbert.model import (
    GilbertMultiHopModel,
    GilbertMultiHopSolution,
    GilbertSingleHopModel,
    GilbertSingleHopSolution,
)
from repro.core.gilbert.transitions import gilbert_specs, gilbert_states, gilbert_tag_rates
from repro.core.markov import (
    batched_absorption_times_dense,
    batched_stationary_chain,
    batched_stationary_dense,
    spec_tags,
)
from repro.core.multihop.heterogeneous import HeterogeneousHop
from repro.core.multihop.lumping import (
    LumpedTreeModel,
    LumpedTreeSolution,
    lumped_state_space,
    lumped_transition_specs,
)
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import multihop_protocol
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import tree_transition_specs
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.model import SingleHopModel, SingleHopSolution
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import (
    state_space,
    transition_specs,
    transition_tag_rates,
)
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "CHAIN_BACKENDS",
    "GilbertTemplate",
    "LumpedTreeTemplate",
    "SingleHopTemplate",
    "TreeTemplate",
    "gilbert_multihop_template",
    "gilbert_singlehop_template",
    "iterative_tree_template",
    "lumped_tree_template",
    "select_chain_backend",
    "singlehop_template",
    "solve_gilbert_multihop_tasks",
    "solve_gilbert_singlehop_tasks",
    "solve_heterogeneous_structured_tasks",
    "solve_heterogeneous_tasks",
    "solve_multihop_structured_tasks",
    "solve_multihop_tasks",
    "solve_singlehop_tasks",
    "solve_tree_iterative_tasks",
    "solve_tree_lumped_tasks",
    "solve_tree_tasks",
    "tree_template",
]


_LOGGER = logging.getLogger(__name__)


def _assemble_dense(
    flat: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """Scatter ``(K, E)`` edge rates into ``(K, n, n)`` dense matrices.

    ``flat`` holds the flattened ``row * n + col`` position of each
    edge; duplicate positions accumulate (parallel edges merged exactly
    as the reference dict accumulation does).
    """
    k = weights.shape[0]
    out = np.zeros((k, n * n))
    for point in range(k):
        out[point] = np.bincount(flat, weights=weights[point], minlength=n * n)
    return out.reshape(k, n, n)


def _fill_generator_diagonal(q: np.ndarray) -> np.ndarray:
    """Set each diagonal to minus the row sum (rows then sum to zero)."""
    n = q.shape[1]
    idx = np.arange(n)
    q[:, idx, idx] = 0.0
    q[:, idx, idx] = -q.sum(axis=2)
    return q


# ----------------------------------------------------------------------
# The shared compile-and-solve loop
# ----------------------------------------------------------------------


class _CompiledTemplate:
    """One compiled chain structure, solved for many rate points at once.

    A subclass calls :meth:`_compile` and supplies the hooks
    ``_model(point)`` (check one point against the template, return its
    reference model) and ``_derived(model)`` (the point's whole
    derived-rate row, one rate per tag of ``_tags``).  A solved row, its
    stationary masses in ``states`` order, goes to the model's
    ``solution_from_row`` (:meth:`_solution`); a point the batch
    cannot certify to ``model.solve()``.
    """

    #: ``"iterative"`` solves every point by ILU/GMRES on the sparse
    #: pattern, whatever the state count; ``"direct"`` picks dense or splu.
    solver = "direct"

    def _compile(self, states, specs) -> None:
        """Fix the COO structure of the reference's own spec list over ``states``.

        The reference accumulates its rate dict from the same
        ``(origin, destination, tag[, multiplicity])`` list, so the COO
        arrays scatter exactly the reference's edges in the reference's
        order: edge ``e`` runs ``states[rows[e]] -> states[cols[e]]`` at
        rate ``derived[features[e]] * multiplicities[e]``, and duplicate
        positions accumulate in edge order, as the reference rate dicts
        do.  Each distinct tag is one derived slot, in first-seen order
        (``_tags``).
        """
        # Every spec list names its states by the objects of ``states``,
        # so they are indexed by identity, which never calls a state's hash.
        index = {id(state): i for i, state in enumerate(states)}
        rows = list(map(index.__getitem__, map(id, map(operator.itemgetter(0), specs))))
        cols = list(map(index.__getitem__, map(id, map(operator.itemgetter(1), specs))))
        self._tags = spec_tags(specs)
        slot = {tag: i for i, tag in enumerate(self._tags)}
        self.states = states
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self._features = np.array(
            list(map(slot.__getitem__, map(operator.itemgetter(2), specs))), dtype=np.intp
        )
        self._multiplicities = np.asarray(
            list(map(operator.itemgetter(3), specs)) if len(specs[0]) == 4 else 1.0,
            dtype=np.float64,
        )
        self._flat = self.rows * len(states) + self.cols
        self._off_diagonal = self.rows != self.cols
        self._systems: dict[bytes, tuple] = {}

    def derived_rows(self, points: Sequence) -> np.ndarray:
        """The ``(K, F)`` derived-rate matrix for ``points``."""
        return self._derived_rows([self._model(point) for point in points])

    def edge_rates(self, points: Sequence) -> np.ndarray:
        """The ``(K, E)`` edge-rate matrix for ``points``."""
        return self._edge_rates([self._model(point) for point in points])

    def _derived_rows(self, models: list) -> np.ndarray:
        return np.array([self._derived(model) for model in models], dtype=np.float64)

    def _edge_rates(self, models: list) -> np.ndarray:
        rates = self._derived_rows(models)[:, self._features]
        rates *= self._multiplicities  # in place: one (K, E) array alive, not two
        return rates

    def _use_sparse(self) -> bool:
        return (
            len(self.states) >= _markov.SPARSE_STATE_THRESHOLD
            and _markov._sparse_modules() is not None
        )

    def _sparse_stationary(self, rates: np.ndarray, iterative: bool) -> np.ndarray:
        """One point's edge ``rates`` solved on the sparse system of its
        positive sub-pattern, compiled once per zero mask.

        The reference rate dict holds the positive off-diagonal edges,
        each key at its first positive spec edge, its rate the sum of its
        spec edges in edge order; ``merge`` maps the spec edges onto the
        keys alike, so the system is the one the reference chain solves.
        """
        positive = (rates > 0.0) & self._off_diagonal
        mask = np.packbits(positive).tobytes()
        if mask not in self._systems:
            edges = np.flatnonzero(positive)
            n = len(self.states)
            _, first, merge = np.unique(
                self.rows[edges] * n + self.cols[edges], return_index=True, return_inverse=True
            )
            keys = edges[np.sort(first)]
            system = _markov.SparseStationarySystem(n, self.rows[keys], self.cols[keys])
            # np.unique numbers the keys by position; renumber them in
            # first-seen order, the order of ``keys``.
            self._systems[mask] = (edges, np.argsort(np.argsort(first))[merge], system)
        edges, merge, system = self._systems[mask]
        values = np.bincount(merge, weights=rates[edges], minlength=system.rows.size)
        return system.stationary(values, iterative=iterative)

    def _stationary(self, models: list) -> tuple[np.ndarray, np.ndarray]:
        """``(pi, bad)`` for every point, dense-batched or sparse-looped.

        A point the sparse or iterative solve fails is flagged for the
        reference fallback, and logged: the fallback must never be
        silent (see docs/robustness.md).
        """
        rates = self._edge_rates(models)
        n = len(self.states)
        if self.solver == "direct" and not self._use_sparse():
            return batched_stationary_dense(
                _fill_generator_diagonal(_assemble_dense(self._flat, rates, n))
            )
        iterative = self.solver == "iterative"
        k = len(models)
        pi = np.zeros((k, n))
        bad = np.zeros(k, dtype=bool)
        for point in range(k):
            try:
                pi[point] = self._sparse_stationary(rates[point], iterative)
            except (ValueError, RuntimeError):
                _LOGGER.warning(
                    "%s template solve failed for %s point %d of %d; "
                    "falling back to the reference model",
                    "iterative" if iterative else "sparse",
                    type(self).__name__,
                    point,
                    k,
                )
                bad[point] = True
        return pi, bad

    def solve_batch(self, points: Sequence) -> list:
        """Solve every point; bit-identical to the per-point reference."""
        return self._solve_points(points, self._stationary)

    def _solve_points(self, points: Sequence, stationary) -> list:
        """Solve ``points`` with ``stationary``, then each flagged point
        (or all of them, if the batch is singular) with its model."""
        models = [self._model(point) for point in points]
        if not models:
            return []
        try:
            pi, bad = stationary(models)
        except np.linalg.LinAlgError:
            return [model.solve() for model in models]
        rows = pi.tolist()
        return [
            model.solve() if bad[k] else self._solution(model, rows[k])
            for k, model in enumerate(models)
        ]

    def _solution(self, model, solved: list):
        return model.solution_from_row(solved)


# ----------------------------------------------------------------------
# Single-hop template
# ----------------------------------------------------------------------


class SingleHopTemplate(_CompiledTemplate):
    """Compiled structure of one protocol's Fig. 3 chain.

    Each batch solves the recurrent chain (the absorbing state merged
    into the start state) for the stationary distribution, and the
    transient chain for the mean time to absorption (the expected
    receiver lifetime), which rides along as the last column.

    Use :func:`singlehop_template` to get the memoized instance.
    """

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = Protocol(protocol)
        self._compile(state_space(self.protocol), transition_specs(self.protocol))
        self._tag_rates = operator.itemgetter(*self._tags)
        self._start = self.states.index(S.S10_FAST)
        # Recurrent chain: the absorbing state (last) merged into the
        # start state — redirect its incoming edges, drop its row/column.
        absorbed = self.states.index(S.ABSORBED)
        merged_cols = np.where(self.cols == absorbed, self._start, self.cols)
        self._recurrent_flat = self.rows * (len(self.states) - 1) + merged_cols

    def _model(self, params: SignalingParameters) -> SingleHopModel:
        return SingleHopModel(self.protocol, params)

    def _derived(self, model: SingleHopModel) -> tuple[float, ...]:
        return self._tag_rates(transition_tag_rates(self.protocol, model.params))

    def _stationary(self, models: list) -> tuple[np.ndarray, np.ndarray]:
        """``(solved, bad)``: each row the recurrent stationary
        distribution, then the point's expected receiver lifetime."""
        rates = self._edge_rates(models)
        m = len(self.states) - 1  # both the recurrent and the transient block size
        recurrent = _fill_generator_diagonal(
            _assemble_dense(self._recurrent_flat, rates, m)
        )
        pi, bad_pi = batched_stationary_dense(recurrent)
        transient = _fill_generator_diagonal(_assemble_dense(self._flat, rates, m + 1))
        times, bad_times = batched_absorption_times_dense(transient[:, :m, :m])
        return np.column_stack((pi, times[:, self._start])), bad_pi | bad_times

    def _solution(self, model: SingleHopModel, solved: list) -> SingleHopSolution:
        return model.solution_from_row(solved[:-1], solved[-1])


# ----------------------------------------------------------------------
# Tree templates (the relay chain and multicast fan-out topologies)
# ----------------------------------------------------------------------


#: Chain solve backends: ``"template"`` is the historical exact-path
#: default (batched dense LAPACK below the sparse threshold, the pinned
#: sparse system above it); ``"structured"`` is the O(hops) block-Thomas
#: kernel (tolerance class).  ``"auto"`` resolves per task via
#: :func:`select_chain_backend`.
CHAIN_BACKENDS = ("auto", "template", "structured")


def select_chain_backend(protocol: Protocol, hops: int) -> str:
    """The chain backend ``"auto"`` resolves to for ``(protocol, hops)``.

    Below :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states the
    template's batched dense path stays the default — it is bit-identical
    to the historical per-point dense results, and the paper's own small
    chains must keep exact ``==`` parity.  At and above the threshold the
    template would fall to per-point sparse factorizations, which match
    the dense oracle only to tolerance (though still the sparse
    reference bit for bit); the structured O(hops) kernel takes over
    there, trading like for like (tolerance for tolerance) while
    dropping the per-point cost from a numeric factorization to a single
    linear recursion.
    """
    protocol = Protocol(protocol)
    n_states = 2 * hops + 1 + (1 if protocol is Protocol.HS else 0)
    if n_states >= _markov.SPARSE_STATE_THRESHOLD:
        return "structured"
    return "template"


class TreeTemplate(_CompiledTemplate):
    """Compiled structure of one ``(protocol, topology)`` tree chain.

    Compiled from the
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    list the reference model builds its rate dict from; each point's tag
    rates are its reference model's
    (:meth:`~repro.core.multihop.tree_model.TreeModel.tag_rates`).  A
    point is its parameters, or ``(params, links)`` for a chain with a
    per-hop link profile.

    On a chain, :meth:`solve_structured` also solves points through the
    O(hops) block-Thomas kernel.  ``solver="iterative"`` compiles the
    same structure but solves every point through the pattern's
    ILU/GMRES path (with ``max_states`` raised to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`
    by :func:`iterative_tree_template`) — a *tolerance*-class backend,
    never substituted for the exact one.

    Use :func:`tree_template` / :func:`iterative_tree_template` to get
    the memoized instances.
    """

    def __init__(
        self,
        protocol: Protocol,
        topology: Topology,
        max_states: int | None = None,
        solver: str = "direct",
    ) -> None:
        self.protocol = multihop_protocol(protocol)
        if solver not in ("direct", "iterative"):
            raise ValueError(f"solver must be 'direct' or 'iterative', got {solver!r}")
        self.topology = topology
        self.solver = solver
        self._new_model = functools.partial(
            TreeModel,
            max_states=max_states,
            solver="iterative" if solver == "iterative" else "auto",
        )
        self._compile(
            tree_state_space(topology, self.protocol is Protocol.HS, max_states),
            tree_transition_specs(self.protocol, topology, max_states),
        )

    def _model(
        self, point: MultiHopParameters | tuple[MultiHopParameters, tuple[HeterogeneousHop, ...]]
    ) -> TreeModel:
        if isinstance(point, tuple):
            params, links = point
            return self._new_model(self.protocol, params, self.topology, links)
        return self._new_model(self.protocol, point, self.topology)

    def _derived(self, model: TreeModel) -> list[float]:
        return model.tag_rates(self._tags)

    @functools.cached_property
    def _chain_columns(self) -> tuple:
        """The derived-row slots the structured kernel reads on a chain:
        the update slot, then per hop the advance, lose and recover
        slots, then the timeout slots (soft state) or the false-signal
        and recovery-exit slots (hard state)."""
        if not self.topology.is_chain:
            raise ValueError(
                f"the structured chain kernel needs a chain topology, got {self.topology.parents}"
            )
        slot = {tag: i for i, tag in enumerate(self._tags)}
        depths = range(1, self.topology.num_nodes)
        per_hop = [[slot[(kind, depth)] for depth in depths] for kind in ("advance", "lose", "recover")]
        if self.protocol is Protocol.HS:
            extra = [slot[("to_recovery",)], slot[("from_recovery",)]]
        else:
            extra = [slot[("timeout", depth)] for depth in depths]
        return (slot[("update",)], *per_hop, extra)

    def _stationary_structured(self, models: list) -> tuple[np.ndarray, np.ndarray]:
        """``(pi, bad)`` through the O(hops) block-Thomas chain kernel.

        Feeds the derived rows' chain columns straight into
        :func:`~repro.core.markov.batched_stationary_chain` — the chain
        structure never has to be scattered into a generator matrix, so
        per-point cost is linear in hops instead of cubic in states.
        """
        update, advance, lose, recover, extra = self._chain_columns
        derived = self._derived_rows(models)
        rows = (derived[:, update], derived[:, advance], derived[:, lose], derived[:, recover])
        if self.protocol is Protocol.HS:
            return batched_stationary_chain(
                *rows, false_signal=derived[:, extra[0]], recovery_return=derived[:, extra[1]]
            )
        return batched_stationary_chain(*rows, timeouts=derived[:, extra])

    def solve_structured(self, points: Sequence) -> list[TreeSolution]:
        """Solve every point of a chain through the O(hops) kernel.

        Tolerance class (the kernel reorders floating-point operations),
        with a per-point fallback to the reference on any point the
        kernel cannot certify.  A branching topology is refused.
        """
        return self._solve_points(points, self._stationary_structured)


class LumpedTreeTemplate(TreeTemplate):
    """Compiled structure of one ``(protocol, topology)`` *lumped* chain.

    The orbit-space twin of :class:`TreeTemplate`, with the same tag
    rates: the COO arrays come from the
    :func:`~repro.core.multihop.lumping.lumped_transition_specs` list
    :class:`~repro.core.multihop.lumping.LumpedTreeModel` accumulates its
    rate dict from, each tag rate scaled by the spec's integer
    multiplicity — the identical float product, scattered in the
    identical accumulation order — so the template and the reference
    lumped model stay bit-identical to each other.  (The *family* is a
    tolerance parity class relative to the direct enumeration: orbit
    aggregation reorders float additions.)

    Use :func:`lumped_tree_template` to get the memoized instance.
    """

    def __init__(self, protocol: Protocol, topology: Topology) -> None:
        self.protocol = multihop_protocol(protocol)
        self.topology = topology
        self._new_model = LumpedTreeModel
        self._compile(
            lumped_state_space(topology, self.protocol is Protocol.HS),
            lumped_transition_specs(self.protocol, topology),
        )


# ----------------------------------------------------------------------
# The Gilbert-Elliott product template (channel state x protocol state),
# one class for the single-hop and the chain base
# ----------------------------------------------------------------------


class GilbertTemplate(_CompiledTemplate):
    """Compiled structure of one Gilbert product chain.

    ``model`` (:class:`~repro.core.gilbert.model.GilbertSingleHopModel`
    or :class:`~repro.core.gilbert.model.GilbertMultiHopModel`) names the
    i.i.d. base family the chain lifts; ``shape`` is the base's discrete
    input (``()`` on a single hop, ``(hops,)`` on a chain).  Compiled
    from the shared
    :func:`~repro.core.gilbert.transitions.gilbert_specs` list, each
    point's tag rates computed by
    :func:`~repro.core.gilbert.transitions.gilbert_tag_rates`.
    Degenerate points (``loss_good == loss_bad``) never reach a
    template: :func:`_solve_gilbert_tasks` partitions them onto the
    i.i.d. template path first.

    Use :func:`gilbert_singlehop_template` or
    :func:`gilbert_multihop_template` for the memoized instance.
    """

    def __init__(self, model: type, protocol: Protocol, *shape: int) -> None:
        self.model = model
        self.protocol = Protocol(protocol)
        self.shape = shape
        self._compile(
            gilbert_states(model.base, self.protocol, *shape),
            gilbert_specs(model.base, self.protocol, *shape),
        )

    def _model(self, point: tuple):
        model = self.model(self.protocol, *point)  # the reference's point checks
        if model.shape != self.shape:
            raise ValueError(
                f"task has {model.params.hops} hops, template compiled for {self.shape[0]}"
            )
        return model

    def _derived(self, model) -> list[float]:
        return gilbert_tag_rates(model.base, self.protocol, model.params, model.gilbert, self._tags)


# ----------------------------------------------------------------------
# Template registry and task-level entry points
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def singlehop_template(protocol: Protocol) -> SingleHopTemplate:
    """The memoized compiled template for ``protocol``."""
    return SingleHopTemplate(protocol)


@functools.lru_cache(maxsize=128)
def tree_template(protocol: Protocol, topology: Topology) -> TreeTemplate:
    """The memoized compiled template for ``(protocol, topology)``."""
    return TreeTemplate(protocol, topology)


@functools.lru_cache(maxsize=128)
def lumped_tree_template(protocol: Protocol, topology: Topology) -> LumpedTreeTemplate:
    """The memoized compiled lumped template for ``(protocol, topology)``."""
    return LumpedTreeTemplate(protocol, topology)


@functools.lru_cache(maxsize=64)
def iterative_tree_template(protocol: Protocol, topology: Topology) -> TreeTemplate:
    """The memoized iterative-backend template for ``(protocol, topology)``.

    Enumerates the raw state space up to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`
    and solves every point through ILU/GMRES — the tolerance-class
    escape hatch for topologies whose orbits do not compress.
    """
    return TreeTemplate(
        protocol,
        topology,
        max_states=MAX_ENUMERATED_TREE_STATES,
        solver="iterative",
    )


@functools.lru_cache(maxsize=64)
def gilbert_singlehop_template(protocol: Protocol) -> GilbertTemplate:
    """The memoized compiled Gilbert product template for ``protocol``."""
    return GilbertTemplate(GilbertSingleHopModel, protocol)


@functools.lru_cache(maxsize=256)
def gilbert_multihop_template(protocol: Protocol, hops: int) -> GilbertTemplate:
    """The memoized compiled Gilbert product template for ``(protocol, hops)``."""
    return GilbertTemplate(GilbertMultiHopModel, multihop_protocol(protocol), hops)


def _solve_grouped(tasks, group_key, solve_group):
    """Group tasks, solve each group batched, scatter to task order."""
    groups: dict[object, list[int]] = {}
    for position, task in enumerate(tasks):
        groups.setdefault(group_key(task), []).append(position)
    results: list[object] = [None] * len(tasks)
    for key, positions in groups.items():
        solved = solve_group(key, [tasks[p] for p in positions])
        for position, solution in zip(positions, solved):
            results[position] = solution
    return results


def _solve_on(template, group_key, point, tasks, **options):
    """Solve ``tasks`` on ``template(*group_key(task))``, batched per
    template; ``point(task)`` is the task's point of that template."""
    return _solve_grouped(
        list(tasks),
        group_key,
        lambda key, group: template(*key).solve_batch(
            [point(task) for task in group], **options
        ),
    )


def _tree_key(task) -> tuple:
    return (Protocol(task[0]), task[2])


_params = operator.itemgetter(1)


def solve_singlehop_tasks(
    tasks: Sequence[tuple[Protocol, SignalingParameters]],
) -> list[SingleHopSolution]:
    """Solve ``(protocol, params)`` tasks through compiled templates."""
    return _solve_on(singlehop_template, lambda task: (Protocol(task[0]),), _params, tasks)


def _chain_key(task) -> tuple:
    return (Protocol(task[0]), task[1].hops)


def _solve_chains(tasks, point, structured: bool = False) -> list[TreeSolution]:
    """Solve chain ``tasks`` on the tree template of ``Topology.chain(hops)``,
    one topology per ``(protocol, hops)`` group; ``point(task)`` is the
    task's template point."""

    def solve_group(key, group):
        protocol, hops = key
        template = tree_template(protocol, Topology.chain(hops))
        points = [point(task) for task in group]
        return template.solve_structured(points) if structured else template.solve_batch(points)

    return _solve_grouped(list(tasks), _chain_key, solve_group)


def _profiled(task) -> tuple:
    return (task[1], tuple(task[2]))


def solve_multihop_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[TreeSolution]:
    """Solve homogeneous ``(protocol, params)`` chain tasks through templates."""
    return _solve_chains(tasks, _params)


def solve_heterogeneous_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[TreeSolution]:
    """Solve ``(protocol, params, hop_vector)`` chain tasks through templates."""
    return _solve_chains(tasks, _profiled)


def solve_multihop_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[TreeSolution]:
    """Solve homogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_multihop_tasks`, but every point
    runs the block-Thomas structured recursion instead of a generic LU
    factorization — tolerance parity class (the kernel reorders
    floating-point operations), with per-point reference fallback.
    """
    return _solve_chains(tasks, _params, structured=True)


def solve_heterogeneous_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[TreeSolution]:
    """Solve heterogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_heterogeneous_tasks`; tolerance
    parity class, per-point reference fallback (see
    :func:`solve_multihop_structured_tasks`).
    """
    return _solve_chains(tasks, _profiled, structured=True)


def solve_tree_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[TreeSolution]:
    """Solve ``(protocol, params, topology)`` tasks through templates."""
    return _solve_on(tree_template, _tree_key, _params, tasks)


def solve_tree_lumped_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[LumpedTreeSolution]:
    """Solve tree tasks on the exact orbit (lumped) state space.

    Tolerance parity class relative to the direct enumeration: orbit
    aggregation reorders float additions (the lumping itself is exact —
    proved rationally in ``tests/core/test_tree_lumping.py``).
    """
    return _solve_on(lumped_tree_template, _tree_key, _params, tasks)


def solve_tree_iterative_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[TreeSolution]:
    """Solve tree tasks through the ILU/GMRES iterative backend.

    Tolerance parity class: Krylov truncation bounds the residual (see
    :data:`~repro.core.markov.ITERATIVE_RTOL`) instead of factorizing
    exactly.  The raw-space escape hatch for topologies that neither
    fit the direct cap nor lump.
    """
    return _solve_on(iterative_tree_template, _tree_key, _params, tasks)


def _solve_gilbert_tasks(tasks, model, solve_iid, template, group_key):
    """Solve ``(protocol, params, gilbert)`` tasks of ``model``, split by channel.

    Degenerate channels (``loss_good == loss_bad``) take the i.i.d. path
    ``solve_iid`` at the common loss and are wrapped verbatim by
    ``model.degenerate``, so they stay bit-identical to the baseline
    results; all other points solve through the compiled product
    ``template(*group_key(task))``.
    """
    tasks = list(tasks)
    results: list[object] = [None] * len(tasks)
    degenerate = [p for p, task in enumerate(tasks) if task[2].is_degenerate]
    rest = [p for p, task in enumerate(tasks) if not task[2].is_degenerate]
    if degenerate:
        base = solve_iid(
            [
                (protocol, params.replace(loss_rate=gilbert.loss_good))
                for protocol, params, gilbert in (tasks[p] for p in degenerate)
            ]
        )
        for position, solution in zip(degenerate, base):
            results[position] = model(*tasks[position]).degenerate(solution)
    solved = _solve_on(template, group_key, lambda task: task[1:], [tasks[p] for p in rest])
    for position, solution in zip(rest, solved):
        results[position] = solution
    return results


def solve_gilbert_singlehop_tasks(
    tasks: Sequence[tuple[Protocol, SignalingParameters, GilbertElliottParameters]],
) -> list[GilbertSingleHopSolution]:
    """Solve ``(protocol, params, gilbert)`` tasks through templates.

    Degenerate channels delegate to the i.i.d. single-hop template path
    (see :func:`_solve_gilbert_tasks`); the rest solve through the
    compiled product templates.
    """
    return _solve_gilbert_tasks(
        tasks,
        GilbertSingleHopModel,
        solve_singlehop_tasks,
        gilbert_singlehop_template,
        lambda task: (Protocol(task[0]),),
    )


def solve_gilbert_multihop_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, GilbertElliottParameters]],
) -> list[GilbertMultiHopSolution]:
    """Solve multi-hop ``(protocol, params, gilbert)`` tasks through templates.

    Degenerate channels delegate to the i.i.d. multi-hop template path
    (see :func:`_solve_gilbert_tasks`); the rest solve through the
    compiled product templates.
    """
    return _solve_gilbert_tasks(
        tasks,
        GilbertMultiHopModel,
        solve_multihop_tasks,
        gilbert_multihop_template,
        _chain_key,
    )
