"""Backend parity matrix: every solver route of every model family,
checked against its referee.

The repo solves one CTMC point along seven paths (:data:`BACKENDS`):
the per-point ``dense`` LAPACK solve, the compiled ``template`` batches
(:mod:`repro.core.templates`), the stacked ``batched`` kernels, the
pinned ``sparse`` system, the O(hops) ``structured`` chain kernel, the
orbit-``lumped`` tree chain and the ILU/GMRES ``iterative`` tree solve.

The matrix is generated from :data:`repro.runtime.solvers.FAMILIES`.  A
route's **referee** is ``Family.reference(route, ...)``, the per-point
solve ``REPRO_TEMPLATES=0`` uses.  For each family tag, protocol and
route, every plan point (:func:`parity_points`) is solved through the
route's entry point and through its referee (a point beyond the direct
referee's reach only on the route ``auto`` sends it to), and every
metric the solution carries is compared, plus ``stationary`` state by
state:

* ``<route>==referee``: bit parity (``==``, tolerance 0.0).  It holds
  whenever the referee is the route's own model (``lumped``,
  ``iterative``) or the entry point's class in :data:`PARITY_CLASSES`
  is ``"exact"``;
* ``<route>~referee``: a route whose referee is the family's direct one
  is held to its class, today only ``structured``;
* ``<own>~<direct>``: each own referee against the family's direct
  referee, on the points the direct one reaches;
* :data:`REDUCTIONS`: one model reproducing another on shared points,
  such as ``degenerate==iid`` and ``uniform~homogeneous``;
* ``dense~sparse``: the direct referee's chain, re-solved through the
  sparse system wherever the referee solved it densely.

Tolerance means ``|a - b| <= SPARSE_ABS_TOL + SPARSE_REL_TOL * |a|``.
``dense==batched`` holds by construction: the per-chain dense solve is
the batched kernel with a stack of one.  A new ``Family`` row gets its
parity rows from its routes and one entry in the plan-point table.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

from repro.core import templates as _templates
from repro.core.markov import SPARSE_STATE_THRESHOLD
from repro.core.multihop.heterogeneous import HeterogeneousHop, hops_from_parameters
from repro.core.multihop.lumping import select_tree_backend
from repro.core.multihop.topology import Topology
from repro.core.protocols import Protocol
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime.solvers import FAMILIES, PARITY_CLASSES
from repro.validation.report import CheckResult, PointCheck

__all__ = [
    "BACKENDS",
    "PARITY_CLASSES",
    "REDUCTIONS",
    "SPARSE_ABS_TOL",
    "SPARSE_REL_TOL",
    "STRUCTURED_CROSSOVER_HOPS",
    "Reduction",
    "parity_parameter_points",
    "parity_points",
    "parity_slice",
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

#: Agreement bound of the tolerance class against its referee:
#: ``|a - b| <= SPARSE_ABS_TOL + SPARSE_REL_TOL * |a|``.
SPARSE_REL_TOL = 1e-8
SPARSE_ABS_TOL = 1e-12

#: The smallest hop count whose chain reaches
#: :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states (2N+1 for
#: the SS family): ``"auto"`` routes it to the structured kernel, and
#: its referee solves the pinned sparse system.
STRUCTURED_CROSSOVER_HOPS = (SPARSE_STATE_THRESHOLD + 1) // 2

#: The metrics every family's checks compare, those the expected side
#: has.
_METRICS = (
    "inconsistency_ratio",
    "expected_receiver_lifetime",
    "message_rate",
    "normalized_message_rate",
)

#: The tree family's leaf metrics, compared on its checks only: a chain
#: family's solution carries them too, but there they only repeat the
#: last hop's inconsistency.
_LEAF_METRICS = ("mean_leaf_inconsistency", "fanout_weighted_inconsistency")

# ----------------------------------------------------------------------
# Plan points: one input axis per family tag
# ----------------------------------------------------------------------


def parity_parameter_points(base, fidelity: str) -> list[tuple[str, object]]:
    """Labelled parameter points for one fidelity.

    ``smoke`` checks the base preset only; ``fast`` adds lossy-channel
    variants; ``full`` additionally stresses the timer couplings.
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


def _grid(base, fidelity: str) -> list[tuple[str, tuple]]:
    return [(label, (params,)) for label, params in parity_parameter_points(base, fidelity)]


def _congested_profile(params) -> tuple[HeterogeneousHop, ...]:
    """A deterministic non-uniform hop vector: every 4th link is lossy."""
    uniform = hops_from_parameters(params)
    return tuple(
        HeterogeneousHop(
            loss_rate=min(0.5, hop.loss_rate * 5) if i % 4 == 3 else hop.loss_rate,
            delay=hop.delay,
        )
        for i, hop in enumerate(uniform)
    )


def _profiles(base, fidelity: str) -> list[tuple[str, tuple]]:
    return [
        ("uniform", (base, hops_from_parameters(base))),
        ("congested", (base, _congested_profile(base))),
    ]


def _channels(base, fidelity: str) -> list[tuple[str, tuple]]:
    """Gilbert-Elliott channels holding the base preset's average loss:
    the degenerate one anchors the i.i.d. reduction, the bursty ones
    exercise the product chains."""
    matched, average = GilbertElliottParameters.matched_average, base.loss_rate
    channels = [("degenerate", matched(average, 0.0)), ("bursty", matched(average, 1.0))]
    if fidelity != "smoke":
        channels.append(("half-burst", matched(average, 0.5)))
    if fidelity == "full":
        channels.append(("slow-burst", matched(average, 1.0, mean_bad_duration=10.0)))
    return [(label, (base, gilbert)) for label, gilbert in channels]


def _tree_points(base, hop_counts, fidelity: str) -> list[tuple[str, tuple]]:
    """Tree shapes on the parameter grid; the shapes above the direct
    cap at the base point only."""
    shapes = [
        ("chain3", Topology.chain(3)),
        ("chain8", Topology.chain(8)),
        ("star3", Topology.star(3)),
        ("binary2", Topology.kary(2, 2)),
        ("skewed3", Topology.skewed(3)),
    ]
    scale = [("star8", Topology.star(8))]
    if fidelity != "smoke":
        shapes.append(("broom2x3", Topology.broom(2, 3)))
    if fidelity == "full":
        shapes += [("star4", Topology.star(4)), ("skewed4", Topology.skewed(4))]
        scale.append(("binary3", Topology.kary(2, 3)))
    return [
        (f"{name} {label}", (params, topology))
        for group, grid in ((shapes, fidelity), (scale, "smoke"))
        for name, topology in group
        for label, (params,) in _grid(base.replace(hops=topology.num_edges), grid)
    ]


def _per_hop(axis, crossover: bool = False):
    """Lift ``axis`` to every plan hop count, labels prefixed ``N=h``; a
    chain family adds the crossover hop count at its base point (the
    smoke grid)."""

    def points(base, hop_counts, fidelity: str) -> list[tuple[str, tuple]]:
        grids = [(hops, fidelity) for hops in hop_counts]
        if crossover:
            grids.append((STRUCTURED_CROSSOVER_HOPS, "smoke"))
        return [
            (f"N={hops} {label}", inputs)
            for hops, grid in grids
            for label, inputs in axis(base.replace(hops=int(hops)), grid)
        ]

    return points


#: Each family's plan points: ``(base, hop_counts, fidelity) ->
#: [(label, inputs)]``, a task being ``(protocol, *inputs)``.
_AXES: dict[str, Callable[..., list[tuple[str, tuple]]]] = {
    "singlehop": lambda base, hop_counts, fidelity: _grid(base, fidelity),
    "multihop": _per_hop(_grid, crossover=True),
    "heterogeneous": _per_hop(_profiles, crossover=True),
    "tree": _tree_points,
    "gilbert-singlehop": lambda base, hop_counts, fidelity: _channels(base, fidelity),
    "gilbert-multihop": _per_hop(_channels),
}


def parity_points(
    tag: str, base, hop_counts: Sequence[int] = (), fidelity: str = "smoke"
) -> list[tuple[str, tuple]]:
    """The labelled plan points of family ``tag``: ``(label, inputs)``."""
    return _AXES[tag](base, tuple(hop_counts), fidelity)


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


def _state_label(state) -> str:
    """Compact state name for point labels (enum values over reprs)."""
    return str(getattr(state, "value", state))


def _states(left: dict, right: dict) -> list[tuple[str, float, float]]:
    return [(f"pi[{_state_label(s)}]", value, right[s]) for s, value in left.items()]


def _stationary(left, right) -> list[tuple[str, float, float]]:
    return _states(left.stationary, right.stationary)


def _metrics(left, right) -> list[tuple[str, float, float]]:
    return [(m, getattr(left, m), getattr(right, m)) for m in _METRICS if hasattr(left, m)]


def _tree_metrics(left, right) -> list[tuple[str, float, float]]:
    return _metrics(left, right) + [
        (m, getattr(left, m), getattr(right, m)) for m in _LEAF_METRICS
    ]


def _profile(left, right) -> list[tuple[str, float, float]]:
    return [
        (f"hop_inconsistency({hop})", a, b)
        for hop, (a, b) in enumerate(zip(left.hop_profile(), right.hop_profile()), 1)
    ]


def _breakdown(left, right) -> list[tuple[str, float, float]]:
    return [
        (f"breakdown[{key}]", value, right.message_breakdown.get(key, math.nan))
        for key, value in left.message_breakdown.items()
    ]


#: A comparison: ``(field, exact)`` pairs, each field yielding
#: ``(name, expected, observed)`` for two solutions.
Fields = tuple[tuple[Callable[..., list], bool], ...]


def _point(label: str, expected: float, observed: float, exact: bool) -> PointCheck:
    expected, observed = float(expected), float(observed)
    if exact:
        return PointCheck(label, expected, observed, 0.0, expected == observed)
    return PointCheck(
        label,
        expected,
        observed,
        SPARSE_ABS_TOL + SPARSE_REL_TOL * abs(expected),
        math.isclose(expected, observed, rel_tol=SPARSE_REL_TOL, abs_tol=SPARSE_ABS_TOL),
    )


def _compare(label: str, left, right, fields: Fields) -> list[PointCheck]:
    return [
        _point(f"{label} {name}", expected, observed, exact)
        for field, exact in fields
        for name, expected, observed in field(left, right)
    ]


def _check(tag: str, protocol: Protocol, relation: str, points: list[PointCheck]) -> CheckResult:
    exact = sum(point.tolerance == 0.0 for point in points)
    counts = {"exact": exact, f"within rel {SPARSE_REL_TOL:g}": len(points) - exact}
    detail = ", ".join(f"{count} {bound}" for bound, count in counts.items() if count)
    return CheckResult(
        name=f"{tag} {protocol.value}: {relation}",
        kind="parity",
        passed=all(point.passed for point in points),
        detail=detail,
        points=tuple(points),
    )


# ----------------------------------------------------------------------
# Reductions
# ----------------------------------------------------------------------


class Reduction(NamedTuple):
    """One model reproducing another on the plan points of ``tag``.

    ``left`` and ``right`` are ``(family tag, route, inputs)``: the
    referee solved, with ``inputs`` mapping a plan point's inputs to its
    own, or to ``None`` where the reduction does not apply.  ``left`` is
    the expected side.  It runs at the listed ``fidelities``.
    """

    name: str
    tag: str
    left: tuple[str, str, Callable[..., tuple | None]]
    right: tuple[str, str, Callable[..., tuple | None]]
    fields: Fields
    fidelities: tuple[str, ...] = ("smoke", "fast", "full")


def _same(*inputs) -> tuple:
    return inputs


def _iid(params, gilbert) -> tuple | None:
    return (params.replace(loss_rate=gilbert.loss_good),) if gilbert.is_degenerate else None


def _above_cap(params, topology) -> tuple | None:
    return (params, topology) if select_tree_backend(topology) != "direct" else None


def _homogeneous(params, hops) -> tuple | None:
    return (params,) if hops == hops_from_parameters(params) else None


#: The reduction relations.  ``degenerate==iid`` hop profiles are
#: recomputed from the product-form distribution, so they are close,
#: not verbatim; the uniform heterogeneous chain accumulates its rates
#: per hop, so it reproduces the homogeneous one to tolerance only.
REDUCTIONS: tuple[Reduction, ...] = (
    Reduction(
        "degenerate==iid",
        "gilbert-singlehop",
        ("singlehop", "template", _iid),
        ("gilbert-singlehop", "template", _same),
        ((_metrics, True), (_breakdown, True)),
    ),
    Reduction(
        "degenerate==iid",
        "gilbert-multihop",
        ("multihop", "template", _iid),
        ("gilbert-multihop", "template", _same),
        ((_metrics, True), (_profile, False)),
    ),
    Reduction(
        "lumped~iterative",
        "tree",
        ("tree", "lumped", _above_cap),
        ("tree", "iterative", _same),
        ((_tree_metrics, False),),
        ("fast", "full"),
    ),
    Reduction(
        "uniform~homogeneous",
        "heterogeneous",
        ("multihop", "template", _homogeneous),
        ("heterogeneous", "template", _same),
        ((_metrics, False), (_stationary, False), (_profile, False)),
    ),
)

# ----------------------------------------------------------------------
# The slice
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=1024)
def _referee(tag: str, route: str, protocol: Protocol, *inputs):
    """``Family.reference`` memoized: slices sharing a point (a protocol
    subset, a reduction's other side) solve it once."""
    return FAMILIES[tag].reference(route, protocol, *inputs)


def _reduced(reduction: Reduction, protocol: Protocol, points: list):
    """``(label, left, right)`` on every plan point ``reduction`` covers."""
    for label, inputs in points:
        sides = [(tag, route, to(*inputs)) for tag, route, to in (reduction.left, reduction.right)]
        if all(mapped is not None for *_, mapped in sides):
            left, right = (_referee(tag, route, protocol, *mapped) for tag, route, mapped in sides)
            yield label, left, right


def _relations(tag: str, protocol: Protocol, points: list, fidelity: str):
    """Yield ``(relation, fields, pairs)`` for one family and protocol,
    ``pairs`` being ``[(label, expected, observed)]``."""
    family = FAMILIES[tag]
    direct, *own = family.reference_chains
    metrics = _tree_metrics if tag == "tree" else _metrics

    def referee(route: str, inputs: tuple):
        return _referee(tag, route, protocol, *inputs)

    # Beyond the direct referee's reach (auto sends the point to a route
    # with a referee of its own), only that route solves the point.
    auto = [family.select(protocol, *inputs) if family.select else None for _, inputs in points]
    reach = [point for point, chosen in zip(points, auto) if chosen not in own]
    for route, entry in family.routes.items():
        exact = route in own or PARITY_CLASSES[entry] == "exact"
        routed = [pt for pt, chosen in zip(points, auto) if chosen not in own or chosen == route]
        solved = getattr(_templates, entry)([(protocol, *inputs) for _, inputs in routed])
        own_or_direct = route if route in own else direct
        pairs = [
            (label, referee(own_or_direct, inputs), solution)
            for (label, inputs), solution in zip(routed, solved)
        ]
        relation = f"{route}{'==' if exact else '~'}referee"
        yield relation, ((metrics, exact), (_stationary, exact)), pairs
    for route in own:
        pairs = [(label, referee(direct, ins), referee(route, ins)) for label, ins in reach]
        yield f"{route}~{direct}", ((metrics, False),), pairs
    for reduction in REDUCTIONS:
        if reduction.tag == tag and fidelity in reduction.fidelities:
            yield reduction.name, reduction.fields, list(_reduced(reduction, protocol, points))
    pairs = []
    for label, inputs in reach:
        expected = referee(direct, inputs).stationary
        # One entry per state: at the crossover the referee is sparse.
        if len(expected) < SPARSE_STATE_THRESHOLD:
            chain = family.reference_chains[direct](protocol, *inputs).with_solver("sparse")
            pairs.append((label, expected, chain.stationary_distribution()))
    yield "dense~sparse", ((_states, False),), pairs


def parity_slice(
    tag: str,
    base,
    protocols: Sequence[Protocol],
    hop_counts: Sequence[int] = (),
    fidelity: str = "smoke",
) -> list[CheckResult]:
    """The parity checks of family ``tag`` at one base point."""
    points = parity_points(tag, base, hop_counts, fidelity)
    checks: list[CheckResult] = []
    for protocol in protocols:
        for relation, fields, pairs in _relations(tag, protocol, points, fidelity):
            found = [
                point
                for label, expected, observed in pairs
                for point in _compare(label, expected, observed, fields)
            ]
            if found:
                checks.append(_check(tag, protocol, relation, found))
    return checks
