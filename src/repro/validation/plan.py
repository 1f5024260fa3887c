"""Validation plans: every ScenarioSpec becomes an executable check list.

:func:`build_plan` inspects a registered
:class:`~repro.experiments.spec.ScenarioSpec` and derives what can be
certified about it:

* **artifact checks** (every scenario): the scenario runs at the
  requested fidelity, produces finite numbers, and its JSON artifact
  round-trips losslessly through the schema-versioned loader;
* **invariant checks** (every scenario): stationary distributions sum
  to one, inconsistency ratios stay in ``[0, 1]`` and receiver
  lifetimes are positive at the scenario's base parameter point;
* **backend parity checks** (every scenario): the scenario's family
  slice of the :mod:`~repro.validation.parity` matrix — dense, template
  and batched solves must agree exactly, sparse within tolerance,
  across the scenario's protocols (and two hop counts for multi-hop
  families);
* **differential sim-vs-model checks** (scenarios with a
  :class:`~repro.experiments.spec.SimPlan`): the replicated
  discrete-event simulations must be Student-t-equivalent to the
  analytic predictions at every swept point
  (:mod:`~repro.validation.equivalence`).

:func:`execute_plan` runs the checks and packages a
:class:`~repro.validation.report.ValidationReport`;
:func:`validate_scenario` / :func:`validate_all` are the one-call
entry points the CLI ``validate`` verb and :mod:`repro.api` use.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from repro.core.markov import SPARSE_STATE_THRESHOLD
from repro.core.protocols import Protocol
from repro.experiments import run_scenario, scenario_ids
from repro.experiments import spec as _spec
from repro.experiments.runner import ExperimentResult
from repro.experiments.spec import ScenarioSpec, SeriesPlan
from repro.core.multihop.topology import Topology
from repro.core.parameters import MultiHopParameters
from repro.faults.gilbert import GilbertElliottParameters
from repro.transient import transient_model
from repro.runtime import (
    solve_gilbert_multihop_batch,
    solve_gilbert_singlehop_batch,
    solve_multihop_batch,
    solve_singlehop_batch,
    solve_transient_curve,
    solve_tree_batch,
)
from repro.validation.equivalence import (
    CURVE_EQUIVALENCE_CRITERIA,
    SIM_EQUIVALENCE_CRITERIA,
    equivalence_curve,
    equivalence_point,
)
from repro.validation.parity import (
    BACKENDS,
    chain_backend_parity_checks,
    gilbert_multihop_parity_checks,
    gilbert_singlehop_parity_checks,
    heterogeneous_parity_check,
    multihop_parity_checks,
    singlehop_parity_checks,
    tree_parity_checks,
    tree_scale_parity_checks,
)
from repro.validation.report import CheckResult, PointCheck, ValidationReport

__all__ = [
    "ValidationPlan",
    "build_plan",
    "execute_plan",
    "validate_all",
    "validate_scenario",
]


@dataclasses.dataclass(frozen=True)
class ValidationPlan:
    """What validating one scenario at one fidelity will exercise."""

    spec: ScenarioSpec
    fidelity: str
    protocols: tuple[Protocol, ...]
    sim_panels: tuple[str, ...]
    parity_families: tuple[str, ...]
    hop_counts: tuple[int, ...]

    @property
    def has_simulation(self) -> bool:
        """Whether differential sim-vs-model checks will run."""
        return bool(self.sim_panels)


def _sim_panels(spec: ScenarioSpec) -> tuple[str, ...]:
    return tuple(
        panel.name
        for panel in spec.panels
        if any(plan.kind == "sim" for plan in panel.plans)
    )


#: The canonical topology tree-family invariants are checked on: small
#: enough to solve densely, non-trivial in both depth and fan-out.
_INVARIANT_TOPOLOGY = Topology.kary(2, 2)


def _parity_hop_counts(spec: ScenarioSpec) -> tuple[int, ...]:
    if spec.family in ("singlehop", "tree"):
        return ()
    base = _spec.base_parameters(spec)
    if not isinstance(base, MultiHopParameters):
        # A single-hop preset in a hop-agnostic family (e.g. the
        # single-hop burst_loss scenario) has no chain length to sweep.
        return ()
    # Two hop counts in the dense regime: the scenario's own chain
    # length plus a short contrast chain.  Exact dense==template==
    # batched parity is only guaranteed below the sparse crossover
    # (solver="auto" flips the reference itself to the pinned sparse
    # system there), so the
    # scenario's hop count is clamped: the largest chain is 2N+2
    # states (HS recovery state included).
    dense_limit = (SPARSE_STATE_THRESHOLD - 2) // 2 - 1
    hops = min(int(base.hops), dense_limit)
    contrast = 5 if hops != 5 else 8
    return tuple(sorted({hops, contrast}))


def build_plan(scenario: str | ScenarioSpec, fidelity: str = "smoke") -> ValidationPlan:
    """Derive the validation plan for one scenario at one fidelity."""
    spec = scenario if isinstance(scenario, ScenarioSpec) else _spec.scenario(scenario)
    spec.fidelity(fidelity)  # fail early on unknown fidelities
    if spec.family == "singlehop":
        families: tuple[str, ...] = ("singlehop",)
        protocols = spec.protocols
    elif spec.family == "tree":
        families = ("tree",)
        multihop = Protocol.multihop_family()
        protocols = tuple(p for p in spec.protocols if p in multihop)
    elif spec.family == "burst_loss":
        # The parameter preset picks the product chain; both variants
        # also validate their i.i.d. anchor slice (the degenerate
        # channel must reproduce it bit for bit).
        if isinstance(_spec.base_parameters(spec), MultiHopParameters):
            families = ("multihop", "gilbert_multihop")
            multihop = Protocol.multihop_family()
            protocols = tuple(p for p in spec.protocols if p in multihop)
        else:
            families = ("singlehop", "gilbert_singlehop")
            protocols = spec.protocols
    elif spec.family == "link_flap":
        # No analytic flap model exists; parity covers the clean
        # baseline chain the faulted simulations perturb.
        families = ("multihop",)
        multihop = Protocol.multihop_family()
        protocols = tuple(p for p in spec.protocols if p in multihop)
    elif spec.family == "transient":
        # Parity covers the stationary chain the transient analysis
        # starts from (and relaxes back to); the curves themselves get
        # dedicated invariants and curve-level sim checks.
        families = ("multihop",)
        multihop = Protocol.multihop_family()
        protocols = tuple(p for p in spec.protocols if p in multihop)
    else:
        families = ("multihop",)
        if spec.family == "heterogeneous":
            families += ("heterogeneous",)
        multihop = Protocol.multihop_family()
        protocols = tuple(p for p in spec.protocols if p in multihop)
    return ValidationPlan(
        spec=spec,
        fidelity=fidelity,
        protocols=protocols,
        sim_panels=_sim_panels(spec),
        parity_families=families,
        hop_counts=_parity_hop_counts(spec),
    )


# ----------------------------------------------------------------------
# Check builders
# ----------------------------------------------------------------------


def _artifact_checks(result: ExperimentResult) -> list[CheckResult]:
    finite_points = []
    for panel in result.panels:
        values = [y for series in panel.series for y in series.y]
        values += [
            err
            for series in panel.series
            if series.y_err is not None
            for err in series.y_err
        ]
        finite = sum(1 for v in values if math.isfinite(v))
        finite_points.append(
            PointCheck(
                label=panel.name,
                expected=float(len(values)),
                observed=float(finite),
                tolerance=0.0,
                passed=finite == len(values) and values != [],
            )
        )
    checks = [
        CheckResult(
            name="artifact: finite series values",
            kind="artifact",
            passed=all(point.passed for point in finite_points),
            points=tuple(finite_points),
        )
    ]
    try:
        round_trip = ExperimentResult.from_json(result.to_json()) == result
        detail = "" if round_trip else "decoded artifact differs from the result"
    except (ValueError, KeyError) as error:
        round_trip = False
        detail = f"artifact failed to decode: {error}"
    checks.append(
        CheckResult(
            name="artifact: json round-trip lossless",
            kind="artifact",
            passed=round_trip,
            detail=detail,
        )
    )
    return checks


def _invariant_checks(plan: ValidationPlan) -> CheckResult:
    """Base-point sanity invariants on the scenario's own family."""
    spec = plan.spec
    base = _spec.base_parameters(spec)
    points: list[PointCheck] = []
    if spec.family == "singlehop":
        solutions = solve_singlehop_batch([(p, base) for p in plan.protocols])
    elif spec.family == "tree":
        topology = _INVARIANT_TOPOLOGY
        tree_base = base.replace(hops=topology.num_edges)
        solutions = solve_tree_batch(
            [(p, tree_base, topology) for p in plan.protocols]
        )
    elif spec.family == "burst_loss":
        # Invariants on the maximally bursty product chain — the
        # degenerate anchor is already covered by the parity slice.
        gilbert = GilbertElliottParameters.matched_average(base.loss_rate, 1.0)
        tasks = [(p, base, gilbert) for p in plan.protocols]
        if isinstance(base, MultiHopParameters):
            solutions = solve_gilbert_multihop_batch(tasks)
        else:
            solutions = solve_gilbert_singlehop_batch(tasks)
    else:
        solutions = solve_multihop_batch([(p, base) for p in plan.protocols])
    for protocol, solution in zip(plan.protocols, solutions):
        total = sum(solution.stationary.values())
        points.append(
            PointCheck(
                label=f"{protocol.value} sum(pi)",
                expected=1.0,
                observed=total,
                tolerance=1e-9,
                passed=abs(total - 1.0) <= 1e-9,
            )
        )
        smallest = min(solution.stationary.values())
        points.append(
            PointCheck(
                label=f"{protocol.value} min(pi) >= 0",
                expected=max(smallest, 0.0),
                observed=smallest,
                tolerance=0.0,
                passed=smallest >= 0.0,
            )
        )
        ratio = solution.inconsistency_ratio
        points.append(
            PointCheck(
                label=f"{protocol.value} I in [0,1]",
                expected=min(max(ratio, 0.0), 1.0),
                observed=ratio,
                tolerance=0.0,
                passed=0.0 <= ratio <= 1.0,
            )
        )
        lifetime = getattr(solution, "expected_receiver_lifetime", None)
        if lifetime is not None:
            points.append(
                PointCheck(
                    label=f"{protocol.value} L > 0",
                    expected=abs(lifetime),
                    observed=lifetime,
                    tolerance=0.0,
                    passed=lifetime > 0.0,
                )
            )
    if spec.family == "transient":
        points.extend(_transient_invariant_points(plan, base))
    return CheckResult(
        name="invariants @ base parameters",
        kind="invariant",
        passed=all(point.passed for point in points),
        points=tuple(points),
    )


def _transient_invariant_points(
    plan: ValidationPlan, base
) -> list[PointCheck]:
    """Curve-level invariants of a transient scenario.

    Every curve value is a probability, and every scenario's last grid
    point lies past the fault (or cold-start) window, so the final
    value must have relaxed back to the nominal chain's stationary
    consistency level.
    """
    spec = plan.spec
    profile = spec.fidelity(plan.fidelity)
    times = tuple(spec.axis("time").resolve(profile))
    points: list[PointCheck] = []
    for protocol in plan.protocols:
        curve = solve_transient_curve(
            (protocol, base, None, spec.transient.initial, spec.transient.faults, times)
        )
        low = min(curve.consistency)
        high = max(curve.consistency)
        points.append(
            PointCheck(
                label=f"{protocol.value} curve in [0,1]",
                expected=min(max(low, 0.0), 1.0),
                observed=low if low < 0.0 else high,
                tolerance=1e-9,
                passed=low >= -1e-9 and high <= 1.0 + 1e-9,
            )
        )
        model = transient_model(protocol, base)
        stationary = float(
            model.initial_vector("stationary")[model.consistent_index]
        )
        final = curve.consistency[-1]
        points.append(
            PointCheck(
                label=f"{protocol.value} final ~ stationary",
                expected=stationary,
                observed=final,
                tolerance=0.05,
                passed=abs(final - stationary) <= 0.05,
            )
        )
    return points


def _sim_model_checks(
    plan: ValidationPlan, result: ExperimentResult
) -> list[CheckResult]:
    """Pair each simulated series with its analytic twin, point by point."""
    checks: list[CheckResult] = []
    spec = plan.spec
    if spec.family == "link_flap":
        # Flap scenarios are simulation-only by design: there is no
        # analytic twin to differ from.
        return checks
    if spec.family == "transient":
        return _curve_checks(plan, result)
    for panel_spec in spec.panels:
        sim_plans = [p for p in panel_spec.plans if p.kind == "sim"]
        if not sim_plans:
            continue
        panel = result.panel(panel_spec.name)
        for sim_plan in sim_plans:
            criterion = SIM_EQUIVALENCE_CRITERIA[sim_plan.metric]
            points: list[PointCheck] = []
            for protocol in _plan_protocols(spec, sim_plan, plan.protocols):
                try:
                    model = panel.series_by_label(protocol.value)
                    sim = panel.series_by_label(
                        f"{protocol.value}{sim_plan.label_suffix}"
                    )
                except KeyError:
                    continue  # narrowed out by a protocol selection
                if model.x != sim.x:
                    # Positional pairing would silently compare the
                    # wrong operating points (and truncate the rest).
                    points.append(
                        PointCheck(
                            label=f"{protocol.value}: sim x-grid differs from model",
                            expected=float(len(model.x)),
                            observed=float(len(sim.x)),
                            tolerance=0.0,
                            passed=False,
                        )
                    )
                    continue
                errs = sim.y_err or (0.0,) * len(sim.y)
                for x, m, s, hw in zip(model.x, model.y, sim.y, errs):
                    points.append(
                        equivalence_point(
                            f"{protocol.value} @ x={x:g}", m, s, hw, criterion
                        )
                    )
            checks.append(
                CheckResult(
                    name=f"sim==model: {panel_spec.name} [{sim_plan.metric}]",
                    kind="sim_model",
                    passed=all(point.passed for point in points) and bool(points),
                    detail=(
                        f"|sim-model| <= max({criterion.ci_multiplier:g}*CI, "
                        f"{criterion.rel_tol:.0%}, {criterion.abs_floor:g})"
                    ),
                    points=tuple(points),
                )
            )
    return checks


def _curve_checks(
    plan: ValidationPlan, result: ExperimentResult
) -> list[CheckResult]:
    """Curve-level sim-vs-model checks for transient scenarios.

    Unlike the stationary differential checks, a curve may violate its
    per-point band at a bounded fraction of grid points (the
    deterministic-timer simulation steps through ramps the exponential
    model smooths over); see
    :class:`~repro.validation.equivalence.CurveCriterion`.
    """
    checks: list[CheckResult] = []
    spec = plan.spec
    criterion = CURVE_EQUIVALENCE_CRITERIA["consistency"]
    for panel_spec in spec.panels:
        sim_plans = [p for p in panel_spec.plans if p.kind == "sim"]
        if not sim_plans:
            continue
        panel = result.panel(panel_spec.name)
        for sim_plan in sim_plans:
            points: list[PointCheck] = []
            curves_pass = True
            for protocol in _plan_protocols(spec, sim_plan, plan.protocols):
                try:
                    model = panel.series_by_label(protocol.value)
                    sim = panel.series_by_label(
                        f"{protocol.value}{sim_plan.label_suffix}"
                    )
                except KeyError:
                    continue  # narrowed out by a protocol selection
                if model.x != sim.x:
                    points.append(
                        PointCheck(
                            label=f"{protocol.value}: sim time grid differs from model",
                            expected=float(len(model.x)),
                            observed=float(len(sim.x)),
                            tolerance=0.0,
                            passed=False,
                        )
                    )
                    curves_pass = False
                    continue
                errs = sim.y_err or (0.0,) * len(sim.y)
                curve_points, curve_passed = equivalence_curve(
                    protocol.value, model.x, model.y, sim.y, errs, criterion
                )
                points.extend(curve_points)
                curves_pass = curves_pass and curve_passed
            checks.append(
                CheckResult(
                    name=f"sim==model curve: {panel_spec.name} [consistency]",
                    kind="sim_model",
                    passed=curves_pass and bool(points),
                    detail=(
                        f"per point |sim-model| <= "
                        f"max({criterion.point.ci_multiplier:g}*CI, "
                        f"{criterion.point.rel_tol:.0%}, "
                        f"{criterion.point.abs_floor:g}); curve passes with "
                        f"<= {criterion.max_violation_fraction:.0%} of grid "
                        "points violating"
                    ),
                    points=tuple(points),
                )
            )
    return checks


def _plan_protocols(
    spec: ScenarioSpec, series_plan: SeriesPlan, selection: tuple[Protocol, ...]
) -> tuple[Protocol, ...]:
    pool = series_plan.protocols or spec.protocols
    return tuple(p for p in pool if p in selection)


@functools.lru_cache(maxsize=128)
def _cached_parity_slice(
    family: str,
    base,
    protocols: tuple[Protocol, ...],
    hop_counts: tuple[int, ...],
    fidelity: str,
) -> tuple[CheckResult, ...]:
    """One memoized slice of the parity matrix.

    Most scenarios share a base preset (nine single-hop scenarios all
    validate the unmodified Kazaa defaults), so ``validate all`` would
    otherwise re-solve an identical parity grid per scenario.  Keying
    by the frozen parameter dataclass dedupes the work; the returned
    ``CheckResult`` tuples are immutable, so sharing them across
    reports is safe.
    """
    if family == "singlehop":
        return tuple(singlehop_parity_checks(base, protocols, fidelity=fidelity))
    if family == "multihop":
        return tuple(
            multihop_parity_checks(base, hop_counts, protocols, fidelity=fidelity)
        ) + tuple(
            chain_backend_parity_checks(
                base, hop_counts, protocols, fidelity=fidelity
            )
        )
    if family == "tree":
        return tuple(tree_parity_checks(base, protocols, fidelity=fidelity)) + tuple(
            tree_scale_parity_checks(base, protocols, fidelity=fidelity)
        )
    if family == "gilbert_singlehop":
        return tuple(
            gilbert_singlehop_parity_checks(base, protocols, fidelity=fidelity)
        )
    if family == "gilbert_multihop":
        return tuple(
            gilbert_multihop_parity_checks(
                base, hop_counts, protocols, fidelity=fidelity
            )
        )
    return (heterogeneous_parity_check(base, protocols),)


def _parity_checks(plan: ValidationPlan) -> list[CheckResult]:
    base = _spec.base_parameters(plan.spec)
    checks: list[CheckResult] = []
    for family in plan.parity_families:
        checks.extend(
            _cached_parity_slice(
                family, base, plan.protocols, plan.hop_counts, plan.fidelity
            )
        )
    return checks


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def execute_plan(
    plan: ValidationPlan,
    jobs: int | None = None,
    seed: int | None = None,
) -> ValidationReport:
    """Run every check of ``plan`` and package the report.

    ``jobs`` fans the scenario run (simulations included) across worker
    processes; ``seed`` overrides the simulation seed of validation
    scenarios, exactly as :func:`repro.experiments.run_scenario` does.
    """
    spec = plan.spec
    checks: list[CheckResult] = []
    try:
        result = run_scenario(spec, plan.fidelity, jobs=jobs, seed=seed)
    except Exception as error:  # noqa: BLE001 - a crash is itself a finding
        checks.append(
            CheckResult(
                name="artifact: scenario runs",
                kind="artifact",
                passed=False,
                detail=f"{type(error).__name__}: {error}",
            )
        )
        result = None
    if result is not None:
        checks.extend(_artifact_checks(result))
        checks.extend(_sim_model_checks(plan, result))
    # The deterministic check families get the same crash-is-a-finding
    # treatment: one broken scenario must fail its own report, not
    # abort a whole `validate all` sweep.
    for name, build in (
        ("invariants @ base parameters", lambda: [_invariant_checks(plan)]),
        ("parity matrix", lambda: _parity_checks(plan)),
    ):
        try:
            checks.extend(build())
        except Exception as error:  # noqa: BLE001
            checks.append(
                CheckResult(
                    name=f"{name}: runs",
                    kind="invariant" if "invariant" in name else "parity",
                    passed=False,
                    detail=f"{type(error).__name__}: {error}",
                )
            )
    return ValidationReport(
        scenario_id=spec.scenario_id,
        title=spec.title,
        fidelity=plan.fidelity,
        checks=tuple(checks),
        protocols=tuple(p.value for p in plan.protocols),
        backends=BACKENDS,
        hop_counts=plan.hop_counts,
    )


def validate_scenario(
    scenario: str | ScenarioSpec,
    fidelity: str = "smoke",
    *,
    jobs: int | None = None,
    seed: int | None = None,
) -> ValidationReport:
    """Build and execute the validation plan for one scenario."""
    return execute_plan(build_plan(scenario, fidelity), jobs=jobs, seed=seed)


def validate_all(
    fidelity: str = "smoke",
    *,
    jobs: int | None = None,
    seed: int | None = None,
) -> list[ValidationReport]:
    """Validate every registered scenario, in registry order."""
    return [
        validate_scenario(scenario_id, fidelity, jobs=jobs, seed=seed)
        for scenario_id in scenario_ids()
    ]
