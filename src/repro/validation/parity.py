"""Backend parity matrix: one chain, every solver path, asserted agreement.

The repo ships four ways to solve the same CTMC point:

``dense``
    the per-point reference models (:class:`SingleHopModel`,
    :class:`MultiHopModel`, :class:`HeterogeneousMultiHopModel`) on the
    per-chain dense LAPACK path — the ground truth;
``template``
    the compiled chain templates (:mod:`repro.core.templates`), which
    batch points sharing a chain structure into stacked LAPACK solves;
``batched``
    the raw batched kernels
    (:func:`~repro.core.markov.batched_stationary_dense`,
    :func:`~repro.core.markov.batched_absorption_times_dense`) applied
    to the reference chain's own generator matrices;
``sparse``
    the per-chain ``scipy.sparse`` splu path (what ``solver="auto"``
    switches to above the crossover state count);
``lumped``
    the exact orbit-lumping of isomorphic sibling subtrees
    (:mod:`repro.core.multihop.lumping`) — mathematically exact, but
    aggregation reorders float additions, so it is held to tolerance
    against the direct enumeration (and to bit parity against its own
    compiled template);
``iterative``
    the ILU-preconditioned GMRES/BiCGSTAB path for raw tree spaces
    beyond the direct cap — tolerance class by construction.

The parity policy matches the repo's fast-path guarantees: the dense,
template and batched paths must agree **exactly** (``==``, bit parity —
they run the same ``dgesv`` on the same matrices), while the sparse,
lumped and iterative paths must agree within a tight tolerance (a
different factorization cannot promise the same last bits).  The matrix
spans protocols × hop counts × parameter points (the point list grows
with fidelity).  Each backend entry point's class is declared once, in
:data:`repro.runtime.solvers.PARITY_CLASSES` (re-exported here), where
the batch solvers also key their memo cache on it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core import templates as _templates
from repro.core.markov import (
    SPARSE_STATE_THRESHOLD,
    ContinuousTimeMarkovChain,
    batched_absorption_times_dense,
    batched_stationary_dense,
)
from repro.core.multihop import lumping as _lumping
from repro.core.multihop.tree_states import MAX_ENUMERATED_TREE_STATES
from repro.core.multihop.heterogeneous import (
    HeterogeneousHop,
    HeterogeneousMultiHopModel,
    hops_from_parameters,
)
from repro.core.gilbert.model import GilbertMultiHopModel, GilbertSingleHopModel
from repro.core.multihop.model import MultiHopModel
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_model import TreeModel
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.model import SingleHopModel
from repro.core.singlehop.states import SingleHopState as S
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime.solvers import PARITY_CLASSES
from repro.validation.report import CheckResult, PointCheck

__all__ = [
    "BACKENDS",
    "PARITY_CLASSES",
    "SPARSE_REL_TOL",
    "SPARSE_ABS_TOL",
    "STRUCTURED_CROSSOVER_HOPS",
    "chain_backend_parity_checks",
    "gilbert_multihop_parity_checks",
    "gilbert_parity_channels",
    "gilbert_singlehop_parity_checks",
    "heterogeneous_parity_check",
    "multihop_parity_checks",
    "parity_parameter_points",
    "singlehop_parity_checks",
    "tree_parity_checks",
    "tree_parity_topologies",
    "tree_scale_parity_checks",
]

#: The solver paths the matrix covers, reference first.
BACKENDS = (
    "dense",
    "template",
    "batched",
    "sparse",
    "structured",
    "lumped",
    "iterative",
)

#: Agreement bound for the sparse (splu) backend against the dense
#: reference: ``|a - b| <= SPARSE_ABS_TOL + SPARSE_REL_TOL * |a|``.
SPARSE_REL_TOL = 1e-8
SPARSE_ABS_TOL = 1e-12


def parity_parameter_points(base, fidelity: str) -> list[tuple[str, object]]:
    """Labelled parameter points for one fidelity.

    ``smoke`` checks the base preset only; ``fast`` adds lossy-channel
    variants; ``full`` additionally stresses the timer couplings.  All
    variants stay in the regime where ``solver="auto"`` is dense, so
    the exact-parity assertions compare like with like.
    """
    points: list[tuple[str, object]] = [("base", base)]
    if fidelity == "smoke":
        return points
    points += [
        ("loss=0.05", base.replace(loss_rate=0.05)),
        ("loss=0.2", base.replace(loss_rate=0.2)),
    ]
    if fidelity == "fast":
        return points
    points += [
        ("lossless", base.replace(loss_rate=0.0)),
        ("R=1", base.with_coupled_timers(1.0)),
        ("R=30", base.with_coupled_timers(30.0)),
        ("delay=0.3", base.replace(delay=0.3, retransmission_interval=1.2)),
    ]
    return points


def _state_label(state) -> str:
    """Compact state name for point labels (enum values over reprs)."""
    return str(getattr(state, "value", state))


def _exact_point(label: str, expected: float, observed: float) -> PointCheck:
    return PointCheck(
        label=label,
        expected=expected,
        observed=observed,
        tolerance=0.0,
        passed=expected == observed,
    )


def _close_point(label: str, expected: float, observed: float) -> PointCheck:
    tolerance = SPARSE_ABS_TOL + SPARSE_REL_TOL * abs(expected)
    return PointCheck(
        label=label,
        expected=expected,
        observed=observed,
        tolerance=tolerance,
        passed=math.isclose(
            expected, observed, rel_tol=SPARSE_REL_TOL, abs_tol=SPARSE_ABS_TOL
        ),
    )


def _check(name: str, points: list[PointCheck], detail: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        kind="parity",
        passed=all(point.passed for point in points),
        detail=detail,
        points=tuple(points),
    )


def _sparse_stationary_points(
    chain: ContinuousTimeMarkovChain, reference: dict, label: str
) -> list[PointCheck]:
    """Re-solve ``chain`` through splu and compare the distribution."""
    sparse_chain = ContinuousTimeMarkovChain(
        chain.states, chain.rates, solver="sparse"
    )
    sparse_pi = sparse_chain.stationary_distribution()
    return [
        _close_point(
            f"{label} pi[{_state_label(state)}]", reference[state], sparse_pi[state]
        )
        for state in chain.states
    ]


def _batched_stationary_points(
    chain: ContinuousTimeMarkovChain, reference: dict, label: str
) -> list[PointCheck]:
    """Push the chain's own generator through the batched kernel."""
    q = chain.generator_matrix()
    pi, bad = batched_stationary_dense(q[None])
    if bad[0]:
        return [
            PointCheck(
                label=f"{label} batched solve rejected",
                expected=1.0,
                observed=0.0,
                tolerance=0.0,
                passed=False,
            )
        ]
    return [
        _exact_point(
            f"{label} pi[{_state_label(state)}]", reference[state], float(pi[0, i])
        )
        for i, state in enumerate(chain.states)
    ]


def singlehop_parity_checks(
    params: SignalingParameters,
    protocols: Sequence[Protocol] = tuple(Protocol),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The single-hop slice of the parity matrix."""
    checks: list[CheckResult] = []
    for protocol in protocols:
        template_points: list[PointCheck] = []
        batched_points: list[PointCheck] = []
        sparse_points: list[PointCheck] = []
        for label, point_params in parity_parameter_points(params, fidelity):
            model = SingleHopModel(protocol, point_params)
            reference = model.solve()
            template = _templates.solve_singlehop_tasks(
                [(protocol, point_params)]
            )[0]
            for metric in (
                "inconsistency_ratio",
                "expected_receiver_lifetime",
                "message_rate",
                "normalized_message_rate",
            ):
                template_points.append(
                    _exact_point(
                        f"{label} {metric}",
                        getattr(reference, metric),
                        getattr(template, metric),
                    )
                )
            recurrent = model.recurrent_chain()
            batched_points.extend(
                _batched_stationary_points(recurrent, reference.stationary, label)
            )
            batched_points.append(
                _batched_lifetime_point(model, reference, label)
            )
            sparse_points.extend(
                _sparse_stationary_points(recurrent, reference.stationary, label)
            )
        checks.append(
            _check(
                f"singlehop {protocol.value}: dense==template",
                template_points,
                detail="compiled-template metrics, exact",
            )
        )
        checks.append(
            _check(
                f"singlehop {protocol.value}: dense==batched",
                batched_points,
                detail="stacked-LAPACK kernels, exact",
            )
        )
        checks.append(
            _check(
                f"singlehop {protocol.value}: dense~sparse",
                sparse_points,
                detail=f"splu within rel {SPARSE_REL_TOL:g}",
            )
        )
    return checks


def _batched_lifetime_point(
    model: SingleHopModel, reference, label: str
) -> PointCheck:
    """Batched absorption kernel vs the reference receiver lifetime."""
    transient_chain = model.transient_chain()
    states = transient_chain.states
    q = transient_chain.generator_matrix()
    transient = [i for i, state in enumerate(states) if state is not S.ABSORBED]
    q_tt = q[np.ix_(transient, transient)]
    times, bad = batched_absorption_times_dense(q_tt[None])
    if bad[0]:
        return PointCheck(
            label=f"{label} batched absorption rejected",
            expected=1.0,
            observed=0.0,
            tolerance=0.0,
            passed=False,
        )
    start = transient.index(list(states).index(S.S10_FAST))
    return _exact_point(
        f"{label} expected_receiver_lifetime",
        reference.expected_receiver_lifetime,
        float(times[0, start]),
    )


def multihop_parity_checks(
    params: MultiHopParameters,
    hop_counts: Sequence[int],
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The homogeneous multi-hop slice of the parity matrix."""
    checks: list[CheckResult] = []
    for protocol in protocols:
        template_points: list[PointCheck] = []
        batched_points: list[PointCheck] = []
        sparse_points: list[PointCheck] = []
        for hops in hop_counts:
            hop_base = params.replace(hops=int(hops))
            for label, point_params in parity_parameter_points(hop_base, fidelity):
                label = f"N={hops} {label}"
                model = MultiHopModel(protocol, point_params)
                reference = model.solve()
                template = _templates.solve_multihop_tasks(
                    [(protocol, point_params)]
                )[0]
                for metric in ("inconsistency_ratio", "message_rate"):
                    template_points.append(
                        _exact_point(
                            f"{label} {metric}",
                            getattr(reference, metric),
                            getattr(template, metric),
                        )
                    )
                chain = model.chain()
                batched_points.extend(
                    _batched_stationary_points(chain, reference.stationary, label)
                )
                sparse_points.extend(
                    _sparse_stationary_points(chain, reference.stationary, label)
                )
        hop_list = ",".join(str(h) for h in hop_counts)
        checks.append(
            _check(
                f"multihop {protocol.value}: dense==template",
                template_points,
                detail=f"hops {hop_list}, exact",
            )
        )
        checks.append(
            _check(
                f"multihop {protocol.value}: dense==batched",
                batched_points,
                detail=f"hops {hop_list}, exact",
            )
        )
        checks.append(
            _check(
                f"multihop {protocol.value}: dense~sparse",
                sparse_points,
                detail=f"hops {hop_list}, splu within rel {SPARSE_REL_TOL:g}",
            )
        )
    return checks


#: Unary chain lengths for the tree==chain reduction slice.
TREE_CHAIN_HOPS = (3, 8)

#: Metrics compared exactly between tree solver paths.
_TREE_METRICS = (
    "inconsistency_ratio",
    "message_rate",
    "mean_leaf_inconsistency",
    "fanout_weighted_inconsistency",
)


def tree_parity_topologies(fidelity: str = "smoke") -> list[tuple[str, Topology]]:
    """Labelled non-chain tree shapes for one fidelity.

    ``smoke`` covers one of each structural kind (pure fan-out,
    balanced, skewed); ``fast``/``full`` widen and deepen them while
    staying in the dense regime so exact parity compares like with
    like.
    """
    shapes = [
        ("star3", Topology.star(3)),
        ("binary2", Topology.kary(2, 2)),
        ("skewed3", Topology.skewed(3)),
    ]
    if fidelity == "smoke":
        return shapes
    shapes.append(("broom2x3", Topology.broom(2, 3)))
    if fidelity == "fast":
        return shapes
    shapes.append(("star4", Topology.star(4)))
    shapes.append(("skewed4", Topology.skewed(4)))
    return shapes


def tree_parity_checks(
    params: MultiHopParameters,
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The tree (multicast) slice of the parity matrix.

    Four assertions per protocol:

    * **unary==chain** — the tree model on ``Topology.chain(N)`` must
      reproduce :class:`MultiHopModel` *bit for bit*: stationary
      distribution state by state (the canonical tree state order maps
      1:1 onto the chain order), inconsistency ratio, message rate and
      the per-node (= per-hop) inconsistency profile;
    * **dense==template** — the compiled tree templates agree exactly
      with the per-point dense reference on every shape and metric;
    * **dense==batched** — the stacked-LAPACK kernel applied to the
      reference tree generator reproduces the stationary distribution
      exactly;
    * **dense~sparse** — the splu path agrees within the repo's sparse
      tolerance.
    """
    checks: list[CheckResult] = []
    for protocol in protocols:
        unary_points: list[PointCheck] = []
        for hops in TREE_CHAIN_HOPS:
            chain_params = params.replace(hops=int(hops))
            topology = Topology.chain(int(hops))
            for label, point_params in parity_parameter_points(chain_params, fidelity):
                label = f"N={hops} {label}"
                chain_reference = MultiHopModel(protocol, point_params).solve()
                tree = TreeModel(protocol, point_params, topology).solve()
                # Guard the positional mapping: a state-count mismatch
                # is exactly the divergence this check exists to catch,
                # and zip() would otherwise truncate it silently.
                unary_points.append(
                    _exact_point(
                        f"{label} state count",
                        float(len(chain_reference.stationary)),
                        float(len(tree.stationary)),
                    )
                )
                for (chain_state, expected), observed in zip(
                    chain_reference.stationary.items(), tree.stationary.values()
                ):
                    unary_points.append(
                        _exact_point(
                            f"{label} pi[{chain_state}]", expected, observed
                        )
                    )
                unary_points.append(
                    _exact_point(
                        f"{label} inconsistency_ratio",
                        chain_reference.inconsistency_ratio,
                        tree.inconsistency_ratio,
                    )
                )
                unary_points.append(
                    _exact_point(
                        f"{label} message_rate",
                        chain_reference.message_rate,
                        tree.message_rate,
                    )
                )
                for hop in range(1, int(hops) + 1):
                    unary_points.append(
                        _exact_point(
                            f"{label} hop_inconsistency({hop})",
                            chain_reference.hop_inconsistency(hop),
                            tree.node_inconsistency(hop),
                        )
                    )
        checks.append(
            _check(
                f"tree {protocol.value}: unary==chain",
                unary_points,
                detail=f"fan-out-1 trees vs Fig. 15/16 chains, N={TREE_CHAIN_HOPS}, exact",
            )
        )

        template_points: list[PointCheck] = []
        batched_points: list[PointCheck] = []
        sparse_points: list[PointCheck] = []
        for shape, topology in tree_parity_topologies(fidelity):
            shape_params = params.replace(hops=topology.num_edges)
            for label, point_params in parity_parameter_points(shape_params, fidelity):
                label = f"{shape} {label}"
                model = TreeModel(protocol, point_params, topology)
                reference = model.solve()
                template = _templates.solve_tree_tasks(
                    [(protocol, point_params, topology)]
                )[0]
                for metric in _TREE_METRICS:
                    template_points.append(
                        _exact_point(
                            f"{label} {metric}",
                            getattr(reference, metric),
                            getattr(template, metric),
                        )
                    )
                chain = model.chain()
                batched_points.extend(
                    _batched_stationary_points(chain, reference.stationary, label)
                )
                sparse_points.extend(
                    _sparse_stationary_points(chain, reference.stationary, label)
                )
        shape_list = ",".join(shape for shape, _ in tree_parity_topologies(fidelity))
        checks.append(
            _check(
                f"tree {protocol.value}: dense==template",
                template_points,
                detail=f"shapes {shape_list}, exact",
            )
        )
        checks.append(
            _check(
                f"tree {protocol.value}: dense==batched",
                batched_points,
                detail=f"shapes {shape_list}, exact",
            )
        )
        checks.append(
            _check(
                f"tree {protocol.value}: dense~sparse",
                sparse_points,
                detail=f"shapes {shape_list}, splu within rel {SPARSE_REL_TOL:g}",
            )
        )
    return checks


def tree_scale_parity_checks(
    params: MultiHopParameters,
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The tree-scale slice: lumped and iterative backends vs the truth.

    Per protocol:

    * **lumped~dense (below cap)** — the orbit-lumped solve reproduces
      the direct enumeration's metrics within the sparse tolerance on
      shapes small enough to solve both ways (the lumping itself is
      *exact*; only float summation order differs, see the rational
      proof in ``tests/core/test_tree_lumping.py``);
    * **lumped model==template** — the compiled lumped template agrees
      with :class:`~repro.core.multihop.lumping.LumpedTreeModel` bit
      for bit (same floats, same accumulation order), including on
      above-cap shapes like ``star8`` (6561 raw states, 45 orbits);
    * **iterative~dense (below cap)** — the ILU/GMRES backend agrees
      with the dense reference within tolerance.

    ``fast`` adds the cross-backend check above the old 4096-state
    wall: ``star8`` solved via lumping and via raw-space iteration must
    agree within the sparse tolerance (no exact path exists up there to
    referee — the two scale backends referee each other).  ``full``
    repeats it on the depth-3 binary tree (15129 raw states → 741
    orbits), the shape the wall was named after.
    """
    checks: list[CheckResult] = []
    small_shapes = [
        ("star3", Topology.star(3)),
        ("binary2", Topology.kary(2, 2)),
    ]
    if fidelity != "smoke":
        small_shapes.append(("broom2x3", Topology.broom(2, 3)))
    for protocol in protocols:
        lumped_points: list[PointCheck] = []
        template_points: list[PointCheck] = []
        iterative_points: list[PointCheck] = []
        for shape, topology in small_shapes:
            point_params = params.replace(hops=topology.num_edges)
            reference = TreeModel(protocol, point_params, topology).solve()
            lumped = _lumping.LumpedTreeModel(
                protocol, point_params, topology
            ).solve()
            iterative = TreeModel(
                protocol, point_params, topology, solver="iterative"
            ).solve()
            for metric in _TREE_METRICS:
                lumped_points.append(
                    _close_point(
                        f"{shape} {metric}",
                        getattr(reference, metric),
                        getattr(lumped, metric),
                    )
                )
                iterative_points.append(
                    _close_point(
                        f"{shape} {metric}",
                        getattr(reference, metric),
                        getattr(iterative, metric),
                    )
                )
        template_shapes = small_shapes + [("star8", Topology.star(8))]
        for shape, topology in template_shapes:
            point_params = params.replace(hops=topology.num_edges)
            lumped = _lumping.LumpedTreeModel(
                protocol, point_params, topology
            ).solve()
            template = _templates.solve_tree_lumped_tasks(
                [(protocol, point_params, topology)]
            )[0]
            for metric in _TREE_METRICS:
                template_points.append(
                    _exact_point(
                        f"{shape} {metric}",
                        getattr(lumped, metric),
                        getattr(template, metric),
                    )
                )
        shape_list = ",".join(shape for shape, _ in small_shapes)
        checks.append(
            _check(
                f"tree-scale {protocol.value}: lumped~dense",
                lumped_points,
                detail=f"shapes {shape_list}, within rel {SPARSE_REL_TOL:g}",
            )
        )
        checks.append(
            _check(
                f"tree-scale {protocol.value}: lumped==template",
                template_points,
                detail="lumped model vs compiled lumped template, exact",
            )
        )
        checks.append(
            _check(
                f"tree-scale {protocol.value}: iterative~dense",
                iterative_points,
                detail=f"shapes {shape_list}, within rel {SPARSE_REL_TOL:g}",
            )
        )
    if fidelity != "smoke":
        cross_shapes = [("star8", Topology.star(8))]
        if fidelity == "full":
            cross_shapes.append(("binary3", Topology.kary(2, 3)))
        cross_points: list[PointCheck] = []
        for shape, topology in cross_shapes:
            point_params = params.replace(hops=topology.num_edges)
            lumped = _lumping.LumpedTreeModel(
                Protocol.SS, point_params, topology
            ).solve()
            iterative = TreeModel(
                Protocol.SS,
                point_params,
                topology,
                max_states=MAX_ENUMERATED_TREE_STATES,
                solver="iterative",
            ).solve()
            for metric in _TREE_METRICS:
                cross_points.append(
                    _close_point(
                        f"{shape} {metric}",
                        getattr(lumped, metric),
                        getattr(iterative, metric),
                    )
                )
        shape_list = ",".join(shape for shape, _ in cross_shapes)
        checks.append(
            _check(
                "tree-scale ss: lumped~iterative above the direct cap",
                cross_points,
                detail=(
                    f"shapes {shape_list} beyond MAX_TREE_STATES, the two "
                    f"scale backends within rel {SPARSE_REL_TOL:g}"
                ),
            )
        )
    return checks


def gilbert_parity_channels(
    base, fidelity: str = "smoke"
) -> list[tuple[str, GilbertElliottParameters]]:
    """Labelled Gilbert-Elliott channels for one fidelity.

    All channels hold the base preset's average loss; the degenerate
    channel (burstiness 0) anchors the i.i.d. reduction, the bursty
    ones exercise the real product chains.
    """
    average = base.loss_rate
    channels = [
        ("degenerate", GilbertElliottParameters.matched_average(average, 0.0)),
        ("bursty", GilbertElliottParameters.matched_average(average, 1.0)),
    ]
    if fidelity == "smoke":
        return channels
    channels.append(
        ("half-burst", GilbertElliottParameters.matched_average(average, 0.5))
    )
    if fidelity == "fast":
        return channels
    channels.append(
        (
            "slow-burst",
            GilbertElliottParameters.matched_average(
                average, 1.0, mean_bad_duration=10.0
            ),
        )
    )
    return channels


_GILBERT_SINGLEHOP_METRICS = (
    "inconsistency_ratio",
    "expected_receiver_lifetime",
    "message_rate",
    "normalized_message_rate",
)


def gilbert_singlehop_parity_checks(
    params: SignalingParameters,
    protocols: Sequence[Protocol] = tuple(Protocol),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The single-hop Gilbert-Elliott slice of the parity matrix.

    Three assertions per protocol:

    * **dense==template** — the compiled product-chain templates agree
      exactly with the per-point :class:`GilbertSingleHopModel`;
    * **degenerate==iid** — the burstiness-0 channel reproduces the
      i.i.d. :class:`SingleHopModel` *bit for bit* (the models promise
      verbatim metric floats, not merely close ones);
    * **dense~sparse** — the bursty product chain re-solved through
      splu agrees within the repo's sparse tolerance.
    """
    checks: list[CheckResult] = []
    for protocol in protocols:
        template_points: list[PointCheck] = []
        degenerate_points: list[PointCheck] = []
        sparse_points: list[PointCheck] = []
        for label, gilbert in gilbert_parity_channels(params, fidelity):
            model = GilbertSingleHopModel(protocol, params, gilbert)
            reference = model.solve()
            template = _templates.solve_gilbert_singlehop_tasks(
                [(protocol, params, gilbert)]
            )[0]
            for metric in _GILBERT_SINGLEHOP_METRICS:
                template_points.append(
                    _exact_point(
                        f"{label} {metric}",
                        getattr(reference, metric),
                        getattr(template, metric),
                    )
                )
            if gilbert.is_degenerate:
                iid = SingleHopModel(
                    protocol, params.replace(loss_rate=gilbert.loss_good)
                ).solve()
                for metric in _GILBERT_SINGLEHOP_METRICS:
                    degenerate_points.append(
                        _exact_point(
                            f"{label} {metric}",
                            getattr(iid, metric),
                            getattr(reference, metric),
                        )
                    )
                for key, expected in iid.message_breakdown.items():
                    degenerate_points.append(
                        _exact_point(
                            f"{label} breakdown[{key}]",
                            expected,
                            reference.message_breakdown.get(key, float("nan")),
                        )
                    )
            else:
                sparse_points.extend(
                    _sparse_stationary_points(
                        model.chain(), reference.stationary, label
                    )
                )
        checks.append(
            _check(
                f"gilbert singlehop {protocol.value}: dense==template",
                template_points,
                detail="compiled product-chain templates, exact",
            )
        )
        checks.append(
            _check(
                f"gilbert singlehop {protocol.value}: degenerate==iid",
                degenerate_points,
                detail="burstiness-0 channel vs the i.i.d. model, exact",
            )
        )
        checks.append(
            _check(
                f"gilbert singlehop {protocol.value}: dense~sparse",
                sparse_points,
                detail=f"splu within rel {SPARSE_REL_TOL:g}",
            )
        )
    return checks


def gilbert_multihop_parity_checks(
    params: MultiHopParameters,
    hop_counts: Sequence[int],
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The multi-hop Gilbert-Elliott slice of the parity matrix.

    Mirrors :func:`gilbert_singlehop_parity_checks` on the path-wide
    product chain: dense==template exactly, the degenerate channel
    reproduces :class:`MultiHopModel` bit for bit, and the bursty
    chain's splu solve stays within the sparse tolerance.
    """
    checks: list[CheckResult] = []
    for protocol in protocols:
        template_points: list[PointCheck] = []
        degenerate_points: list[PointCheck] = []
        sparse_points: list[PointCheck] = []
        for hops in hop_counts:
            hop_params = params.replace(hops=int(hops))
            for label, gilbert in gilbert_parity_channels(hop_params, fidelity):
                label = f"N={hops} {label}"
                model = GilbertMultiHopModel(protocol, hop_params, gilbert)
                reference = model.solve()
                template = _templates.solve_gilbert_multihop_tasks(
                    [(protocol, hop_params, gilbert)]
                )[0]
                for metric in ("inconsistency_ratio", "message_rate"):
                    template_points.append(
                        _exact_point(
                            f"{label} {metric}",
                            getattr(reference, metric),
                            getattr(template, metric),
                        )
                    )
                if gilbert.is_degenerate:
                    iid = MultiHopModel(
                        protocol, hop_params.replace(loss_rate=gilbert.loss_good)
                    ).solve()
                    for metric in ("inconsistency_ratio", "message_rate"):
                        degenerate_points.append(
                            _exact_point(
                                f"{label} {metric}",
                                getattr(iid, metric),
                                getattr(reference, metric),
                            )
                        )
                    # Hop profiles are *recomputed* from the product-form
                    # stationary distribution (channel weights re-summed),
                    # so they are close, not verbatim copies.
                    for hop in range(1, int(hops) + 1):
                        degenerate_points.append(
                            _close_point(
                                f"{label} hop_inconsistency({hop})",
                                iid.hop_inconsistency(hop),
                                reference.hop_inconsistency(hop),
                            )
                        )
                else:
                    sparse_points.extend(
                        _sparse_stationary_points(
                            model.chain(), reference.stationary, label
                        )
                    )
        hop_list = ",".join(str(h) for h in hop_counts)
        checks.append(
            _check(
                f"gilbert multihop {protocol.value}: dense==template",
                template_points,
                detail=f"hops {hop_list}, exact",
            )
        )
        checks.append(
            _check(
                f"gilbert multihop {protocol.value}: degenerate==iid",
                degenerate_points,
                detail=f"hops {hop_list}, burstiness-0 vs the i.i.d. model, exact",
            )
        )
        checks.append(
            _check(
                f"gilbert multihop {protocol.value}: dense~sparse",
                sparse_points,
                detail=f"hops {hop_list}, splu within rel {SPARSE_REL_TOL:g}",
            )
        )
    return checks


def _congested_profile(
    params: MultiHopParameters,
) -> tuple[HeterogeneousHop, ...]:
    """A deterministic non-uniform hop vector: every 4th link is lossy."""
    uniform = hops_from_parameters(params)
    return tuple(
        HeterogeneousHop(
            loss_rate=min(0.5, hop.loss_rate * 5) if i % 4 == 3 else hop.loss_rate,
            delay=hop.delay,
        )
        for i, hop in enumerate(uniform)
    )


def heterogeneous_parity_check(
    params: MultiHopParameters,
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
) -> CheckResult:
    """Heterogeneous template path vs the per-point reference model.

    Covers both the uniform hop vector (which must reproduce the
    homogeneous numbers) and a congested non-uniform profile, exactly.
    """
    points: list[PointCheck] = []
    profiles = (
        ("uniform", hops_from_parameters(params)),
        ("congested", _congested_profile(params)),
    )
    for protocol in protocols:
        for label, hops in profiles:
            reference = HeterogeneousMultiHopModel(protocol, params, hops).solve()
            template = _templates.solve_heterogeneous_tasks(
                [(protocol, params, hops)]
            )[0]
            for metric in ("inconsistency_ratio", "message_rate"):
                points.append(
                    _exact_point(
                        f"{protocol.value} {label} {metric}",
                        getattr(reference, metric),
                        getattr(template, metric),
                    )
                )
    return _check(
        "heterogeneous: dense==template",
        points,
        detail=f"N={params.hops}, uniform + congested profiles, exact",
    )


#: The smallest hop count whose chain reaches
#: :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states (2N+1 for
#: the SS family) — where ``"auto"`` stops using splu and routes chains
#: to the structured O(hops) kernel instead.
STRUCTURED_CROSSOVER_HOPS = (SPARSE_STATE_THRESHOLD + 1) // 2


def _metric_points(label, reference, observed, point_factory):
    return [
        point_factory(
            f"{label} {metric}",
            getattr(reference, metric),
            getattr(observed, metric),
        )
        for metric in ("inconsistency_ratio", "message_rate")
    ]


def chain_backend_parity_checks(
    params: MultiHopParameters,
    hop_counts: Sequence[int],
    protocols: Sequence[Protocol] = Protocol.multihop_family(),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The structured chain-kernel slice of the parity matrix.

    Three relations per protocol, mirroring the tree-backend slice:

    * ``structured~dense`` — the O(hops) kernel against the per-point
      dense reference at the sweep's own hop counts (tolerance: the
      kernel reorders float operations);
    * ``structured~sparse`` — above the splu crossover
      (:data:`STRUCTURED_CROSSOVER_HOPS`), where no exact referee
      exists, the kernel against the historical splu template path;
    * the heterogeneous congested profile through both relations, so
      the per-hop rate vectors (not just the homogeneous scalars) are
      covered.

    The exact ``dense==template`` relation is *not* re-asserted here —
    :func:`multihop_parity_checks` already owns it, and the structured
    backend never replaces an exact path (see
    :func:`~repro.core.templates.select_chain_backend`).
    """
    checks: list[CheckResult] = []
    for protocol in protocols:
        dense_points: list[PointCheck] = []
        for hops in hop_counts:
            hop_base = params.replace(hops=int(hops))
            for label, point_params in parity_parameter_points(hop_base, fidelity):
                label = f"N={hops} {label}"
                reference = MultiHopModel(protocol, point_params).solve()
                structured = _templates.solve_multihop_structured_tasks(
                    [(protocol, point_params)]
                )[0]
                dense_points.extend(
                    _metric_points(label, reference, structured, _close_point)
                )
                dense_points.extend(
                    _close_point(
                        f"{label} pi[{_state_label(state)}]",
                        reference.stationary[state],
                        structured.stationary[state],
                    )
                    for state in reference.stationary
                )
        hop_list = ",".join(str(h) for h in hop_counts)
        checks.append(
            _check(
                f"chain {protocol.value}: structured~dense",
                dense_points,
                detail=f"hops {hop_list}, block-Thomas within rel {SPARSE_REL_TOL:g}",
            )
        )

        crossover = params.replace(hops=STRUCTURED_CROSSOVER_HOPS)
        sparse_points: list[PointCheck] = []
        template = _templates.solve_multihop_tasks([(protocol, crossover)])[0]
        structured = _templates.solve_multihop_structured_tasks(
            [(protocol, crossover)]
        )[0]
        label = f"N={STRUCTURED_CROSSOVER_HOPS}"
        sparse_points.extend(
            _metric_points(label, template, structured, _close_point)
        )
        congested = _congested_profile(crossover)
        template = _templates.solve_heterogeneous_tasks(
            [(protocol, crossover, congested)]
        )[0]
        structured = _templates.solve_heterogeneous_structured_tasks(
            [(protocol, crossover, congested)]
        )[0]
        sparse_points.extend(
            _metric_points(f"{label} congested", template, structured, _close_point)
        )
        checks.append(
            _check(
                f"chain {protocol.value}: structured~sparse",
                sparse_points,
                detail=(
                    f"N={STRUCTURED_CROSSOVER_HOPS} above the splu crossover, "
                    f"uniform + congested, within rel {SPARSE_REL_TOL:g}"
                ),
            )
        )
    return checks
