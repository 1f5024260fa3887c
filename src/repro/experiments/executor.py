"""The generic scenario executor.

One function, :func:`run_scenario`, turns any registered
:class:`~repro.experiments.spec.ScenarioSpec` into an
:class:`~repro.experiments.runner.ExperimentResult`: it resolves the
named fidelity profile, applies parameter overrides to the base preset,
narrows the protocol set, evaluates every panel's series plans through
the :mod:`repro.runtime` batch path (compiled templates + memo cache +
optional process pool) and stamps a provenance block onto the result.
A sweep plan solves through the ``FAMILIES`` tag that
:func:`~repro.experiments.spec.model_family` names for the scenario,
and each plan's ``label_suffix`` is appended to its series' labels in
one place, whatever the plan's kind.

The canned specs produce byte-identical ``to_text()`` output to the
pre-spec experiment modules; variants (overrides, protocol subsets,
alternate fidelities) run through exactly the same code.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping, Sequence

from repro._version import __version__
from repro.core.protocols import Protocol
from repro.experiments import spec as _spec
from repro.experiments.common import metric_series, parametric_singlehop_series
from repro.experiments.runner import ExperimentResult, Panel, Provenance, Series
from repro.experiments.simsupport import (
    sessions_for_length,
    simulate_faulted_multihop_batch,
    simulate_gilbert_singlehop_batch,
    simulate_singlehop_batch,
    simulate_transient_curve_batch,
)
from repro.experiments.spec import (
    FULL,
    FidelityProfile,
    PanelSpec,
    ScenarioError,
    ScenarioSpec,
    SeriesPlan,
)
from repro.runtime import (
    solve_multihop_batch,
    solve_singlehop_batch,
    solve_transient_curve,
)

__all__ = ["run_scenario"]


def run_scenario(
    scenario: str | ScenarioSpec,
    fidelity: str = FULL,
    *,
    overrides: Mapping[str, float] | None = None,
    protocols: Sequence[Protocol | str] | str | None = None,
    jobs: int | None = None,
    seed: int | None = None,
) -> ExperimentResult:
    """Run one scenario (by id or spec) at a named fidelity.

    ``overrides`` replaces fields of the scenario's base parameter
    preset (validated against the preset's fields); ``protocols``
    narrows the protocol set (names or :class:`Protocol` members, and
    must be a subset of the scenario's own set).  ``jobs`` fans sweep
    points across worker processes; ``seed`` overrides the simulation
    seed of validation scenarios (those with a
    :class:`~repro.experiments.spec.SimPlan`).  Unknown scenario ids
    raise :class:`KeyError`; invalid fidelities, overrides or protocol
    selections raise :class:`~repro.experiments.spec.ScenarioError`.
    """
    spec = scenario if isinstance(scenario, ScenarioSpec) else _spec.scenario(scenario)
    profile = spec.fidelity(fidelity)
    overrides = dict(overrides or {})
    base = _spec.base_parameters(spec, overrides)
    selection = _resolve_selection(spec, protocols)
    sim_memo: dict[tuple, object] = {}

    panels = []
    for panel_spec in spec.panels:
        series: list[Series] = []
        for plan in panel_spec.plans:
            series.extend(
                dataclasses.replace(s, label=s.label + plan.label_suffix)
                for s in _plan_series(
                    spec, plan, profile, base, selection, sim_memo, jobs, seed
                )
            )
        panels.append(_build_panel(spec, panel_spec, series))
    panels = tuple(panels)

    notes = spec.notes
    if spec.notes_hook:
        notes = notes + tuple(_spec.notes_hook(spec.notes_hook)(panels))
    provenance = Provenance(
        scenario_id=spec.scenario_id,
        fidelity=profile.name,
        overrides=tuple(sorted(overrides.items())),
        protocols=tuple(p.value for p in (selection or spec.protocols)),
        package_version=__version__,
    )
    return ExperimentResult(spec.scenario_id, spec.title, panels, notes, provenance)


def _resolve_selection(
    spec: ScenarioSpec, protocols: Sequence[Protocol | str] | str | None
) -> tuple[Protocol, ...] | None:
    if protocols is None:
        return None
    selection = _spec.parse_protocols(protocols)
    unsupported = [p.value for p in selection if p not in spec.protocols]
    if unsupported:
        raise ScenarioError(
            f"{spec.scenario_id} does not model {', '.join(unsupported)}; "
            f"supported: {', '.join(p.value for p in spec.protocols)}"
        )
    return selection


def _plan_protocols(
    spec: ScenarioSpec,
    plan: SeriesPlan,
    selection: tuple[Protocol, ...] | None,
) -> tuple[Protocol, ...]:
    pool = plan.protocols or spec.protocols
    if selection is None:
        return pool
    return tuple(p for p in pool if p in selection)


def _build_panel(spec: ScenarioSpec, panel_spec: PanelSpec, series: list[Series]) -> Panel:
    if not series:
        raise ScenarioError(
            f"{spec.scenario_id}: panel {panel_spec.name!r} has no series "
            "(protocol selection excluded every plan)"
        )
    try:
        return Panel(
            name=panel_spec.name,
            x_label=panel_spec.x_label,
            y_label=panel_spec.y_label,
            series=tuple(series),
            log_x=panel_spec.log_x,
            log_y=panel_spec.log_y,
            shared_x=panel_spec.shared_x,
        )
    except ValueError as error:
        raise ScenarioError(f"{spec.scenario_id}: {error}") from None


def _plan_series(
    spec: ScenarioSpec,
    plan: SeriesPlan,
    profile: FidelityProfile,
    base,
    selection: tuple[Protocol, ...] | None,
    sim_memo: dict[tuple, object],
    jobs: int | None,
    seed: int | None,
) -> list[Series]:
    protocols = _plan_protocols(spec, plan, selection)
    if not protocols:
        return []
    if plan.kind == "sweep":
        return _sweep_series(spec, plan, profile, base, protocols, jobs)
    if plan.kind == "parametric":
        xs = spec.axis(plan.axis).resolve(profile)
        bind = _spec.binder(plan.binder)
        return parametric_singlehop_series(
            xs,
            lambda x: bind(base, x),
            x_metric=_spec.metric(plan.x_metric),
            y_metric=_spec.metric(plan.y_metric),
            protocols=protocols,
            jobs=jobs,
        )
    if plan.kind == "point":
        solutions = solve_singlehop_batch([(p, base) for p in protocols], jobs=jobs)
        x_metric = _spec.metric(plan.x_metric)
        y_metric = _spec.metric(plan.y_metric)
        return [
            Series(protocol.value, (x_metric(solution),), (y_metric(solution),))
            for protocol, solution in zip(protocols, solutions)
        ]
    if plan.kind == "hop_profile":
        solutions = solve_multihop_batch([(p, base) for p in protocols], jobs=jobs)
        xs = tuple(float(h) for h in range(1, base.hops + 1))
        return [
            Series(protocol.value, xs, tuple(solution.hop_profile()))
            for protocol, solution in zip(protocols, solutions)
        ]
    if plan.kind == "sim":
        return _sim_series(spec, plan, profile, base, protocols, sim_memo, jobs, seed)
    if plan.kind == "table":
        return _table_series(base, protocols)
    raise ScenarioError(f"unhandled series-plan kind {plan.kind!r}")


def _sweep_series(
    spec: ScenarioSpec,
    plan: SeriesPlan,
    profile: FidelityProfile,
    base,
    protocols: tuple[Protocol, ...],
    jobs: int | None,
) -> list[Series]:
    xs = spec.axis(plan.axis).resolve(profile)
    family = _spec.model_family(spec)
    if family == "transient":
        # No binder/metric: the axis is the time grid itself, solved in
        # one uniformization pass per protocol through the runtime cache.
        return [
            Series(
                protocol.value,
                xs,
                tuple(
                    solve_transient_curve(
                        (
                            protocol,
                            base,
                            None,
                            spec.transient.initial,
                            spec.transient.faults,
                            tuple(xs),
                        )
                    ).consistency
                ),
            )
            for protocol in protocols
        ]
    if family == "link_flap":
        raise ScenarioError(
            f"{spec.scenario_id}: link_flap scenarios have no analytic model; "
            "use 'sim' series plans"
        )
    bind = _spec.binder(plan.binder)
    return metric_series(
        family, xs, lambda x: bind(base, x), _spec.metric(plan.metric), protocols, jobs
    )


def _sim_series(
    spec: ScenarioSpec,
    plan: SeriesPlan,
    profile: FidelityProfile,
    base,
    protocols: tuple[Protocol, ...],
    sim_memo: dict[tuple, object],
    jobs: int | None,
    seed: int | None,
) -> list[Series]:
    if profile.replications is None:
        raise ScenarioError(
            f"{spec.scenario_id}: fidelity {profile.name!r} sets no replications"
        )
    xs = spec.axis(plan.axis).resolve(profile)
    seed = spec.sim.seed if seed is None else seed
    family = _spec.model_family(spec)
    if family == "transient":
        return _transient_sim_series(spec, profile, base, protocols, xs, sim_memo, jobs, seed)
    bind = _spec.binder(plan.binder)
    replications = profile.replications
    tasks = []
    simulate = simulate_singlehop_batch
    for protocol in protocols:
        for x in xs:
            bound = bind(base, x)
            if family in ("gilbert-multihop", "link_flap"):
                # Binder yields (params, gilbert) or (params, fault schedule).
                simulate = simulate_faulted_multihop_batch
                params, extra = bound
                gilbert, faults = (None, extra) if family == "link_flap" else (extra, None)
                horizon = _sim_horizon(spec, profile)
                tasks.append((protocol, params, gilbert, faults, horizon, replications, seed))
            elif family == "gilbert-singlehop":
                simulate = simulate_gilbert_singlehop_batch
                params, gilbert = bound
                sessions = _sim_sessions(spec, profile, x)
                tasks.append((protocol, params, gilbert, sessions, replications, seed))
            else:
                sessions = _sim_sessions(spec, profile, x)
                tasks.append((protocol, bound, sessions, replications, seed))
    # Both panels of a validation figure draw on the same simulated
    # points; memoize per run so each point is simulated once.
    misses = [task for task in tasks if task not in sim_memo]
    if misses:
        for task, point in zip(misses, simulate(misses, jobs=jobs)):
            sim_memo[task] = point
    points = [sim_memo[task] for task in tasks]
    mean_attr, err_attr = _spec.SIM_METRICS[plan.metric]
    series = []
    for k, protocol in enumerate(protocols):
        chunk = points[k * len(xs) : (k + 1) * len(xs)]
        series.append(
            Series(
                protocol.value,
                xs,
                tuple(getattr(point, mean_attr) for point in chunk),
                tuple(getattr(point, err_attr) for point in chunk),
            )
        )
    return series


def _transient_sim_series(
    spec: ScenarioSpec,
    profile: FidelityProfile,
    base,
    protocols: tuple[Protocol, ...],
    xs: tuple[float, ...],
    sim_memo: dict[tuple, object],
    jobs: int | None,
    seed: int,
) -> list[Series]:
    """Replicated consistency curves: one whole grid per task."""
    transient = spec.transient
    tasks = [
        (
            protocol,
            base,
            transient.faults,
            transient.warmup,
            tuple(xs),
            profile.replications,
            seed,
        )
        for protocol in protocols
    ]
    misses = [task for task in tasks if task not in sim_memo]
    if misses:
        for task, curve in zip(misses, simulate_transient_curve_batch(misses, jobs=jobs)):
            sim_memo[task] = curve
    return [
        Series(
            protocol.value,
            xs,
            sim_memo[task].means,
            sim_memo[task].half_widths,
        )
        for protocol, task in zip(protocols, tasks)
    ]


def _sim_sessions(spec: ScenarioSpec, profile: FidelityProfile, x: float) -> int:
    if spec.sim.sessions_mode == "budget":
        if profile.sim_budget is None:
            raise ScenarioError(
                f"{spec.scenario_id}: fidelity {profile.name!r} sets no sim_budget"
            )
        return sessions_for_length(x, profile.sim_budget)
    if profile.sessions is None:
        raise ScenarioError(
            f"{spec.scenario_id}: fidelity {profile.name!r} sets no sessions"
        )
    return profile.sessions


def _sim_horizon(spec: ScenarioSpec, profile: FidelityProfile) -> float:
    """Multi-hop sims run for ``sim_budget`` simulated seconds per point."""
    if profile.sim_budget is None:
        raise ScenarioError(
            f"{spec.scenario_id}: fidelity {profile.name!r} sets no sim_budget"
        )
    return profile.sim_budget


def _table_series(base, protocols: tuple[Protocol, ...]) -> list[Series]:
    # Late import: the table01 module registers the scenario spec and
    # therefore imports this package's spec module.
    from repro.experiments.table01 import ROW_LABELS, transition_table

    table = transition_table(base)
    xs = tuple(float(i) for i in range(len(ROW_LABELS)))
    return [
        Series(protocol.value, xs, tuple(table[protocol][label] for label in ROW_LABELS))
        for protocol in protocols
    ]
