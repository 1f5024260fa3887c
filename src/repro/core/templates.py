"""Compiled chain templates: structure-cached, batched CTMC solves.

Every figure in the paper sweeps parameters over a chain whose
*structure* (state space and transition graph) is fixed by a model
family's discrete inputs (the protocol, plus the hop count, tree
topology or channel model) while only the rates vary.  The per-point
reference models (:mod:`repro.core.singlehop`, :mod:`repro.core.multihop`
and :mod:`repro.core.gilbert`) rebuild that structure from dicts of
hashable states at every sweep point.  A template compiles it once, and
one private base class, :class:`_CompiledTemplate`, runs everything
after that:

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
* ``solve_batch``: any point the batch cannot certify (singular matrix,
  residual check, non-finite result) is re-solved by the reference
  model, so failure diagnostics are exactly the reference's.

A model family is a subclass that compiles its structure and supplies
three hooks: ``_derived(point)`` validates one point and returns its
whole derived-rate row, computed with the *reference modules' own
helper functions* (``slow_path_recovery_rate``, ``tree_tag_rate``, …);
``_solution(point, solved)`` wraps the point's solved row in the
family's solution type; and ``_reference(point)`` solves the point with
the reference model.  A family whose reference accumulates its rate dict
from an ``(origin, destination, tag[, multiplicity])`` spec list
subclasses :class:`_SpecTemplate`, which compiles that list with one
derived slot per distinct tag.  A new family is therefore a spec list,
a per-point rate hook, a solution wrapper and a reference model.

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
    degenerate_multihop_solution,
    degenerate_singlehop_solution,
    multihop_solution_from_stationary,
    singlehop_solution_from_stationary,
)
from repro.core.gilbert.transitions import (
    check_multihop_coverage,
    check_singlehop_coverage,
    gilbert_multihop_specs,
    gilbert_multihop_states,
    gilbert_multihop_tag_rate,
    gilbert_singlehop_specs,
    gilbert_singlehop_states,
    gilbert_singlehop_tag_rate,
)
from repro.core.markov import (
    batched_absorption_times_dense,
    batched_stationary_chain,
    batched_stationary_dense,
)
from repro.core.multihop.heterogeneous import (
    HeterogeneousHop,
    HeterogeneousMultiHopModel,
    first_timeout_profile,
    heterogeneous_message_components,
    reach_profile,
    recovery_rate_profile,
)
from repro.core.multihop.lumping import (
    LumpedTreeModel,
    LumpedTreeSolution,
    lumped_message_components,
    lumped_state_space,
    lumped_transition_specs,
)
from repro.core.multihop.messages import multihop_message_components
from repro.core.multihop.model import MultiHopModel, MultiHopSolution
from repro.core.multihop.states import multihop_state_space
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import (
    first_timeout_rate,
    slow_path_recovery_rate,
)
from repro.core.multihop.tree_messages import tree_message_components
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import (
    tree_tag_rate,
    tree_transition_specs,
)
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.model import (
    FINITE_SESSION_REQUIRED,
    SingleHopModel,
    SingleHopSolution,
)
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import (
    effective_false_removal_rate,
    slow_path_recovery_rate as singlehop_recovery_rate,
    state_space,
)
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "CHAIN_BACKENDS",
    "GilbertMultiHopTemplate",
    "GilbertSingleHopTemplate",
    "LumpedTreeTemplate",
    "MultiHopTemplate",
    "SingleHopTemplate",
    "TreeTemplate",
    "gilbert_multihop_template",
    "gilbert_singlehop_template",
    "iterative_tree_template",
    "lumped_tree_template",
    "multihop_template",
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
    ``_derived(point)`` (validate one point, return its whole derived-
    rate row), ``_solution(point, solved)`` (wrap the point's row of
    the batched solve, its stationary masses in ``states`` order) and
    ``_reference(point)`` (the per-point reference solve).
    """

    #: ``"iterative"`` solves every point by ILU/GMRES on the sparse
    #: pattern, whatever the state count; ``"direct"`` picks dense or splu.
    solver = "direct"

    def _compile(self, states, rows, cols, features, multiplicities=1.0) -> None:
        """Fix the COO structure over ``states``.

        Edge ``e`` runs ``states[rows[e]] -> states[cols[e]]`` at rate
        ``derived[features[e]] * multiplicities[e]``; duplicate positions
        accumulate in edge order, as the reference rate dicts do.
        """
        self.states = states
        self.rows = np.array(rows, dtype=np.intp)
        self.cols = np.array(cols, dtype=np.intp)
        self._features = np.array(features, dtype=np.intp)
        self._multiplicities = np.asarray(multiplicities, dtype=np.float64)
        self._flat = self.rows * len(states) + self.cols
        self._off_diagonal = self.rows != self.cols
        self._systems: dict[bytes, tuple] = {}

    def derived_rows(self, points: Sequence) -> np.ndarray:
        """The ``(K, F)`` derived-rate matrix for ``points``."""
        return np.array([self._derived(point) for point in points], dtype=np.float64)

    def edge_rates(self, points: Sequence) -> np.ndarray:
        """The ``(K, E)`` edge-rate matrix for ``points``."""
        rates = self.derived_rows(points)[:, self._features]
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

    def _stationary(self, points: list) -> tuple[np.ndarray, np.ndarray]:
        """``(pi, bad)`` for every point, dense-batched or sparse-looped.

        A point the sparse or iterative solve fails is flagged for the
        reference fallback, and logged: the fallback must never be
        silent (see docs/robustness.md).
        """
        rates = self.edge_rates(points)
        n = len(self.states)
        if self.solver == "direct" and not self._use_sparse():
            return batched_stationary_dense(
                _fill_generator_diagonal(_assemble_dense(self._flat, rates, n))
            )
        iterative = self.solver == "iterative"
        k = len(points)
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
        (or all of them, if the batch is singular) with the reference."""
        points = list(points)
        if not points:
            return []
        try:
            pi, bad = stationary(points)
        except np.linalg.LinAlgError:
            return [self._reference(point) for point in points]
        rows = pi.tolist()
        return [
            self._reference(point) if bad[k] else self._solution(point, rows[k])
            for k, point in enumerate(points)
        ]


class _SpecTemplate(_CompiledTemplate):
    """A template compiled from its reference model's shared spec list.

    The reference accumulates its rate dict from the same
    ``(origin, destination, tag[, multiplicity])`` list, so the COO
    arrays scatter exactly the reference's edges in the reference's
    order.  Each distinct tag is one derived slot, in first-seen order
    (``_tags``): ``_derived`` returns one rate per tag.
    """

    def _compile_specs(self, states, specs) -> None:
        index = {state: i for i, state in enumerate(states)}
        self._tags = tuple(dict.fromkeys([spec[2] for spec in specs]))
        slot = {tag: i for i, tag in enumerate(self._tags)}
        self._compile(
            states,
            [index[spec[0]] for spec in specs],
            [index[spec[1]] for spec in specs],
            [slot[spec[2]] for spec in specs],
            [spec[3] for spec in specs] if len(specs[0]) == 4 else 1.0,
        )


def _multihop_protocol(protocol: Protocol) -> Protocol:
    """``protocol``, rejected unless the multi-hop analysis models it."""
    protocol = Protocol(protocol)
    if protocol not in Protocol.multihop_family():
        raise ValueError(f"{protocol.value} is not part of the multi-hop analysis")
    return protocol


# ----------------------------------------------------------------------
# Single-hop template
# ----------------------------------------------------------------------

#: Derived-feature order of the single-hop rate evaluator.
_SH_FEATURES = (
    "fast_ok",
    "fast_lost",
    "update",
    "removal",
    "recovery",
    "false_removal",
    "timeout",
    "timeout_retx",
    "removal_retx",
)
_SH_INDEX = {name: i for i, name in enumerate(_SH_FEATURES)}


def _singlehop_edge_specs(protocol: Protocol) -> list[tuple[S, S, str]]:
    """The Fig. 3 edge list in the reference build order (Table I)."""
    specs = [
        (S.S10_FAST, S.CONSISTENT, "fast_ok"),
        (S.S10_FAST, S.S10_SLOW, "fast_lost"),
        (S.IC_FAST, S.CONSISTENT, "fast_ok"),
        (S.IC_FAST, S.IC_SLOW, "fast_lost"),
        (S.S10_SLOW, S.CONSISTENT, "recovery"),
        (S.IC_SLOW, S.CONSISTENT, "recovery"),
        (S.CONSISTENT, S.IC_FAST, "update"),
        (S.S10_SLOW, S.S10_FAST, "update"),
        (S.IC_SLOW, S.IC_FAST, "update"),
        (S.S10_SLOW, S.ABSORBED, "removal"),
        (S.CONSISTENT, S.S01_FAST, "removal"),
        (S.IC_SLOW, S.S01_FAST, "removal"),
        (S.CONSISTENT, S.S10_SLOW, "false_removal"),
        (S.IC_SLOW, S.S10_SLOW, "false_removal"),
    ]
    if not protocol.explicit_removal:
        specs.append((S.S01_FAST, S.ABSORBED, "timeout"))
        return specs
    specs.append((S.S01_FAST, S.ABSORBED, "fast_ok"))
    specs.append((S.S01_FAST, S.S01_SLOW, "fast_lost"))
    if protocol is Protocol.SS_ER:
        specs.append((S.S01_SLOW, S.ABSORBED, "timeout"))
    elif protocol is Protocol.SS_RTR:
        specs.append((S.S01_SLOW, S.ABSORBED, "timeout_retx"))
    else:  # HS
        specs.append((S.S01_SLOW, S.ABSORBED, "removal_retx"))
    return specs


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
        states: tuple[S, ...] = state_space(self.protocol)
        index = {state: i for i, state in enumerate(states)}
        specs = _singlehop_edge_specs(self.protocol)
        self.edges: tuple[tuple[S, S], ...] = tuple((o, d) for o, d, _ in specs)
        self._compile(
            states,
            [index[o] for o, _, _ in specs],
            [index[d] for _, d, _ in specs],
            [_SH_INDEX[f] for _, _, f in specs],
        )
        self._start = index[S.S10_FAST]
        # Recurrent chain: the absorbing state (last) merged into the
        # start state — redirect its incoming edges, drop its row/column.
        merged_cols = np.where(self.cols == index[S.ABSORBED], self._start, self.cols)
        self._recurrent_flat = self.rows * (len(states) - 1) + merged_cols

    def _derived(self, params: SignalingParameters) -> tuple[float, ...]:
        """One point's derived features, via the reference expressions."""
        if params.removal_rate <= 0:
            raise ValueError(FINITE_SESSION_REQUIRED)
        p = params.loss_rate
        success = 1.0 - p
        delta = params.delay
        timeout = 1.0 / params.timeout_interval
        retransmit = 1.0 / params.retransmission_interval
        return (
            success / delta,
            p / delta,
            params.update_rate,
            params.removal_rate,
            singlehop_recovery_rate(self.protocol, params),
            effective_false_removal_rate(self.protocol, params),
            timeout,
            timeout + success * retransmit,
            success * retransmit,
        )

    def _stationary(self, points: list) -> tuple[np.ndarray, np.ndarray]:
        """``(solved, bad)``: each row the recurrent stationary
        distribution, then the point's expected receiver lifetime."""
        rates = self.edge_rates(points)
        m = len(self.states) - 1  # both the recurrent and the transient block size
        recurrent = _fill_generator_diagonal(
            _assemble_dense(self._recurrent_flat, rates, m)
        )
        pi, bad_pi = batched_stationary_dense(recurrent)
        transient = _fill_generator_diagonal(_assemble_dense(self._flat, rates, m + 1))
        times, bad_times = batched_absorption_times_dense(transient[:, :m, :m])
        return np.column_stack((pi, times[:, self._start])), bad_pi | bad_times

    def _solution(self, params: SignalingParameters, solved: list) -> SingleHopSolution:
        stationary = dict(zip(self.states, solved[:-1]))
        return SingleHopSolution(
            protocol=self.protocol,
            params=params,
            stationary=stationary,
            inconsistency_ratio=1.0 - stationary[S.CONSISTENT],
            expected_receiver_lifetime=solved[-1],
            message_breakdown=message_rate_components(self.protocol, params, stationary),
        )

    def _reference(self, params: SignalingParameters) -> SingleHopSolution:
        return SingleHopModel(self.protocol, params).solve()


# ----------------------------------------------------------------------
# Multi-hop chain template (homogeneous and heterogeneous points)
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


class MultiHopTemplate(_CompiledTemplate):
    """Compiled structure of the Fig. 15/16 chain for ``(protocol, hops)``.

    One template serves both homogeneous points (``hops=None`` in the
    task, rates derived with the homogeneous reference helpers) and
    heterogeneous points (per-hop vectors, rates derived with the
    heterogeneous profile functions), because the chain structure is
    identical — only the rate values differ.  The derived row has the
    fixed layout ``[update, advance(n), lose(n), recover(n), extra]``,
    which the structured O(hops) kernel reads directly.

    Use :func:`multihop_template` to get the memoized instance.
    """

    def __init__(self, protocol: Protocol, hops: int) -> None:
        self.protocol = _multihop_protocol(protocol)
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        self.hops = hops
        with_recovery = self.protocol is Protocol.HS
        states = multihop_state_space(hops, with_recovery=with_recovery)
        n = hops
        ns = len(states)
        # State indexing mirrors multihop_state_space order:
        # fast (i,0) -> i for i in 0..n; slow (i,1) -> n+1+i; RECOVERY last.
        fast = lambda i: i  # noqa: E731 - tiny local alias
        slow = lambda i: n + 1 + i  # noqa: E731
        self._f_update = 0
        self._f_advance = 1
        self._f_lose = 1 + n
        self._f_recover = 1 + 2 * n
        self._f_extra = 1 + 3 * n
        self.n_features = self._f_extra + (2 if with_recovery else n)
        specs: list[tuple[int, int, int]] = []
        for si in range(1, ns):
            specs.append((si, fast(0), self._f_update))
        for i in range(n):
            specs.append((fast(i), fast(i + 1), self._f_advance + i))
            specs.append((fast(i), slow(i), self._f_lose + i))
            specs.append((slow(i), fast(i + 1), self._f_recover + i))
        if not with_recovery:
            for si, state in enumerate(states):
                for j in range(state.consistent_hops):
                    specs.append((si, slow(j), self._f_extra + j))
        else:
            recovery_index = ns - 1
            for si in range(ns - 1):
                specs.append((si, recovery_index, self._f_extra))
            specs.append((recovery_index, fast(0), self._f_extra + 1))
        self._compile(
            states,
            [r for r, _, _ in specs],
            [c for _, c, _ in specs],
            [f for _, _, f in specs],
        )

    # -- rate evaluation ------------------------------------------------

    def _derived(
        self, point: tuple[MultiHopParameters, tuple[HeterogeneousHop, ...] | None]
    ) -> np.ndarray:
        params, hops = point
        if params.hops != self.hops:
            raise ValueError(
                f"task has {params.hops} hops, template compiled for {self.hops}"
            )
        if hops is None:
            return self._derived_homogeneous(params)
        if len(hops) != self.hops:
            raise ValueError(
                f"hop vector length {len(hops)} != template hops {self.hops}"
            )
        return self._derived_heterogeneous(params, hops)

    def _derived_homogeneous(self, params: MultiHopParameters) -> np.ndarray:
        n = self.hops
        row = np.empty(self.n_features)
        row[self._f_update] = params.update_rate
        success = 1.0 - params.loss_rate
        row[self._f_advance : self._f_advance + n] = success / params.delay
        row[self._f_lose : self._f_lose + n] = params.loss_rate / params.delay
        for i in range(n):
            row[self._f_recover + i] = slow_path_recovery_rate(
                self.protocol, params, i + 1
            )
        if self.protocol is Protocol.HS:
            row[self._f_extra] = n * params.external_false_signal_rate
            row[self._f_extra + 1] = 1.0 / (2.0 * n * params.delay)
        else:
            for j in range(n):
                row[self._f_extra + j] = first_timeout_rate(params, j)
        return row

    def _derived_heterogeneous(
        self, params: MultiHopParameters, hops: tuple[HeterogeneousHop, ...]
    ) -> np.ndarray:
        n = self.hops
        reach = reach_profile(hops)
        row = np.empty(self.n_features)
        row[self._f_update] = params.update_rate
        for i, hop in enumerate(hops):
            row[self._f_advance + i] = (1.0 - hop.loss_rate) / hop.delay
            row[self._f_lose + i] = hop.loss_rate / hop.delay
        row[self._f_recover : self._f_recover + n] = recovery_rate_profile(
            self.protocol, params, hops, reach
        )
        if self.protocol is Protocol.HS:
            mean_delay = sum(h.delay for h in hops) / n
            row[self._f_extra] = n * params.external_false_signal_rate
            row[self._f_extra + 1] = 1.0 / (2.0 * n * mean_delay)
        else:
            row[self._f_extra : self._f_extra + n] = first_timeout_profile(
                params, reach
            )
        return row

    # -- solving --------------------------------------------------------

    def _stationary_structured(self, points: list) -> tuple[np.ndarray, np.ndarray]:
        """``(pi, bad)`` through the O(hops) block-Thomas chain kernel.

        Feeds the derived-feature rows straight into
        :func:`~repro.core.markov.batched_stationary_chain` — the chain
        structure never has to be scattered into a generator matrix, so
        per-point cost is linear in hops instead of cubic in states.
        """
        derived = self.derived_rows(points)
        n = self.hops
        update = derived[:, self._f_update]
        advance = derived[:, self._f_advance : self._f_advance + n]
        lose = derived[:, self._f_lose : self._f_lose + n]
        recover = derived[:, self._f_recover : self._f_recover + n]
        if self.protocol is Protocol.HS:
            return batched_stationary_chain(
                update,
                advance,
                lose,
                recover,
                false_signal=derived[:, self._f_extra],
                recovery_return=derived[:, self._f_extra + 1],
            )
        return batched_stationary_chain(
            update,
            advance,
            lose,
            recover,
            timeouts=derived[:, self._f_extra : self._f_extra + n],
        )

    def solve_batch(
        self,
        points: Sequence[tuple[MultiHopParameters, tuple[HeterogeneousHop, ...] | None]],
        backend: str = "template",
    ) -> list[MultiHopSolution]:
        """Solve every point (homogeneous or heterogeneous tasks).

        ``backend="template"`` is the historical fast path: batched
        dense LAPACK below the sparse threshold, the pinned sparse
        system above it (bit-identical to the reference on both sides).
        ``"structured"`` routes through the O(hops) chain kernel instead
        — tolerance class, per-point fallback to the reference on any
        point the kernel cannot certify.
        """
        if backend not in CHAIN_BACKENDS:
            raise ValueError(
                f"chain backend must be one of {CHAIN_BACKENDS}, got {backend!r}"
            )
        if backend == "auto":
            backend = select_chain_backend(self.protocol, self.hops)
        if backend == "structured":
            return self._solve_points(points, self._stationary_structured)
        return self._solve_points(points, self._stationary)

    def _solution(self, point, solved: list) -> MultiHopSolution:
        params, hops = point
        stationary = dict(zip(self.states, solved))
        if hops is None:
            breakdown = multihop_message_components(self.protocol, params, stationary)
        else:
            breakdown = heterogeneous_message_components(
                self.protocol, params, hops, stationary
            )
        return MultiHopSolution(
            protocol=self.protocol,
            params=params,
            stationary=stationary,
            message_breakdown=breakdown,
        )

    def _reference(self, point) -> MultiHopSolution:
        params, hops = point
        if hops is None:
            return MultiHopModel(self.protocol, params).solve()
        return HeterogeneousMultiHopModel(self.protocol, params, hops).solve()


# ----------------------------------------------------------------------
# Tree templates (multicast fan-out topologies)
# ----------------------------------------------------------------------


class TreeTemplate(_SpecTemplate):
    """Compiled structure of one ``(protocol, topology)`` tree chain.

    Compiled from the
    :func:`~repro.core.multihop.tree_transitions.tree_transition_specs`
    list the reference model builds its rate dict from; each tag's rate
    is computed by the shared
    :func:`~repro.core.multihop.tree_transitions.tree_tag_rate` helper.

    ``solver="iterative"`` compiles the same structure but solves every
    point through the pattern's ILU/GMRES path (with ``max_states``
    raised to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`
    by :func:`iterative_tree_template`) — a *tolerance*-class backend,
    never substituted for the exact one.

    Use :func:`tree_template` / :func:`iterative_tree_template` to get
    the memoized instances.
    """

    _solution_type = TreeSolution
    _breakdown = staticmethod(tree_message_components)

    def __init__(
        self,
        protocol: Protocol,
        topology: Topology,
        max_states: int | None = None,
        solver: str = "direct",
    ) -> None:
        self.protocol = _multihop_protocol(protocol)
        if solver not in ("direct", "iterative"):
            raise ValueError(f"solver must be 'direct' or 'iterative', got {solver!r}")
        self.topology = topology
        self.max_states = max_states
        self.solver = solver
        self._compile_specs(
            tree_state_space(topology, self.protocol is Protocol.HS, max_states),
            tree_transition_specs(self.protocol, topology, max_states),
        )

    def _derived(self, params: MultiHopParameters) -> list[float]:
        if params.hops != self.topology.num_edges:
            raise ValueError(
                f"task has {params.hops} hops, template compiled for a "
                f"{self.topology.num_edges}-edge topology"
            )
        return [
            tree_tag_rate(self.protocol, params, self.topology, tag)
            for tag in self._tags
        ]

    def _solution(self, params: MultiHopParameters, solved: list) -> TreeSolution:
        stationary = dict(zip(self.states, solved))
        return self._solution_type(
            protocol=self.protocol,
            params=params,
            topology=self.topology,
            stationary=stationary,
            message_breakdown=self._breakdown(
                self.protocol, params, self.topology, stationary
            ),
        )

    def _reference(self, params: MultiHopParameters) -> TreeSolution:
        return TreeModel(
            self.protocol,
            params,
            self.topology,
            max_states=self.max_states,
            solver="iterative" if self.solver == "iterative" else "auto",
        ).solve()


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

    _solution_type = LumpedTreeSolution
    _breakdown = staticmethod(lumped_message_components)

    def __init__(self, protocol: Protocol, topology: Topology) -> None:
        self.protocol = _multihop_protocol(protocol)
        self.topology = topology
        self._compile_specs(
            lumped_state_space(topology, self.protocol is Protocol.HS),
            lumped_transition_specs(self.protocol, topology),
        )

    def _reference(self, params: MultiHopParameters) -> LumpedTreeSolution:
        return LumpedTreeModel(self.protocol, params, self.topology).solve()


# ----------------------------------------------------------------------
# Gilbert-Elliott product templates (channel state x protocol state)
# ----------------------------------------------------------------------


class GilbertSingleHopTemplate(_SpecTemplate):
    """Compiled structure of one protocol's single-hop product chain.

    Compiled from the shared
    :func:`~repro.core.gilbert.transitions.gilbert_singlehop_specs` list,
    each tag's rate computed by
    :func:`~repro.core.gilbert.transitions.gilbert_singlehop_tag_rate`.
    Degenerate points (``loss_good == loss_bad``) never reach a
    template — :func:`solve_gilbert_singlehop_tasks` partitions them
    onto the i.i.d. template path first.

    Use :func:`gilbert_singlehop_template` for the memoized instance.
    """

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = Protocol(protocol)
        self._compile_specs(
            gilbert_singlehop_states(self.protocol),
            gilbert_singlehop_specs(self.protocol),
        )

    def _derived(
        self, point: tuple[SignalingParameters, GilbertElliottParameters]
    ) -> list[float]:
        params, gilbert = point
        if params.removal_rate <= 0:
            raise ValueError(FINITE_SESSION_REQUIRED)
        check_singlehop_coverage(self.protocol, params, gilbert)
        return [
            gilbert_singlehop_tag_rate(self.protocol, params, gilbert, tag)
            for tag in self._tags
        ]

    def _solution(self, point, solved: list) -> GilbertSingleHopSolution:
        return singlehop_solution_from_stationary(
            self.protocol, *point, dict(zip(self.states, solved))
        )

    def _reference(self, point) -> GilbertSingleHopSolution:
        return GilbertSingleHopModel(self.protocol, *point).solve()


class GilbertMultiHopTemplate(_SpecTemplate):
    """Compiled structure of the multi-hop product chain.

    Use :func:`gilbert_multihop_template` for the memoized instance.
    """

    def __init__(self, protocol: Protocol, hops: int) -> None:
        self.protocol = _multihop_protocol(protocol)
        if hops < 1:
            raise ValueError(f"hops must be >= 1, got {hops}")
        self.hops = hops
        self._compile_specs(
            gilbert_multihop_states(self.protocol, hops),
            gilbert_multihop_specs(self.protocol, hops),
        )

    def _derived(
        self, point: tuple[MultiHopParameters, GilbertElliottParameters]
    ) -> list[float]:
        params, gilbert = point
        if params.hops != self.hops:
            raise ValueError(
                f"task has {params.hops} hops, template compiled for {self.hops}"
            )
        check_multihop_coverage(self.protocol, params, gilbert)
        return [
            gilbert_multihop_tag_rate(self.protocol, params, gilbert, tag)
            for tag in self._tags
        ]

    def _solution(self, point, solved: list) -> GilbertMultiHopSolution:
        return multihop_solution_from_stationary(
            self.protocol, *point, dict(zip(self.states, solved))
        )

    def _reference(self, point) -> GilbertMultiHopSolution:
        return GilbertMultiHopModel(self.protocol, *point).solve()


# ----------------------------------------------------------------------
# Template registry and task-level entry points
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def singlehop_template(protocol: Protocol) -> SingleHopTemplate:
    """The memoized compiled template for ``protocol``."""
    return SingleHopTemplate(protocol)


@functools.lru_cache(maxsize=256)
def multihop_template(protocol: Protocol, hops: int) -> MultiHopTemplate:
    """The memoized compiled template for ``(protocol, hops)``."""
    return MultiHopTemplate(protocol, hops)


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
def gilbert_singlehop_template(protocol: Protocol) -> GilbertSingleHopTemplate:
    """The memoized compiled Gilbert product template for ``protocol``."""
    return GilbertSingleHopTemplate(protocol)


@functools.lru_cache(maxsize=256)
def gilbert_multihop_template(protocol: Protocol, hops: int) -> GilbertMultiHopTemplate:
    """The memoized compiled Gilbert product template for ``(protocol, hops)``."""
    return GilbertMultiHopTemplate(protocol, hops)


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


def _chain_key(task) -> tuple:
    return (Protocol(task[0]), task[1].hops)


def _tree_key(task) -> tuple:
    return (Protocol(task[0]), task[2])


_params = operator.itemgetter(1)


def solve_singlehop_tasks(
    tasks: Sequence[tuple[Protocol, SignalingParameters]],
) -> list[SingleHopSolution]:
    """Solve ``(protocol, params)`` tasks through compiled templates."""
    return _solve_on(singlehop_template, lambda task: (Protocol(task[0]),), _params, tasks)


def solve_multihop_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[MultiHopSolution]:
    """Solve homogeneous ``(protocol, params)`` tasks through templates."""
    return _solve_on(multihop_template, _chain_key, lambda task: (task[1], None), tasks)


def solve_heterogeneous_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[MultiHopSolution]:
    """Solve ``(protocol, params, hop_vector)`` tasks through templates."""
    return _solve_on(
        multihop_template, _chain_key, lambda task: (task[1], tuple(task[2])), tasks
    )


def solve_multihop_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[MultiHopSolution]:
    """Solve homogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_multihop_tasks`, but every point
    runs the block-Thomas structured recursion instead of a generic LU
    factorization — tolerance parity class (the kernel reorders
    floating-point operations), with per-point reference fallback.
    """
    return _solve_on(
        multihop_template, _chain_key, lambda task: (task[1], None), tasks, backend="structured"
    )


def solve_heterogeneous_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[MultiHopSolution]:
    """Solve heterogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_heterogeneous_tasks`; tolerance
    parity class, per-point reference fallback (see
    :func:`solve_multihop_structured_tasks`).
    """
    return _solve_on(
        multihop_template,
        _chain_key,
        lambda task: (task[1], tuple(task[2])),
        tasks,
        backend="structured",
    )


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


def _solve_gilbert_tasks(tasks, solve_iid, wrap_degenerate, group_key, template):
    """Solve ``(protocol, params, gilbert)`` tasks, split by channel.

    Degenerate channels (``loss_good == loss_bad``) take the i.i.d. path
    ``solve_iid`` at the common loss and are wrapped verbatim by
    ``wrap_degenerate``, so they stay bit-identical to the baseline
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
            _, params, gilbert = tasks[position]
            results[position] = wrap_degenerate(params, gilbert, solution)
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
        solve_singlehop_tasks,
        degenerate_singlehop_solution,
        lambda task: (Protocol(task[0]),),
        gilbert_singlehop_template,
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
        solve_multihop_tasks,
        degenerate_multihop_solution,
        _chain_key,
        gilbert_multihop_template,
    )
