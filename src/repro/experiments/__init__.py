"""Experiment harness: one declarative scenario spec per table/figure.

Importing this package registers every canned scenario
(:mod:`repro.experiments.spec` holds the registry); the generic
executor runs any of them — or any parameterized variant — through the
batch solve path:

>>> from repro.experiments import run_scenario
>>> result = run_scenario("fig4", fidelity="fast")
>>> print(result.to_text())

The pre-spec entry point is kept as a thin shim:

>>> from repro.experiments import run_experiment
>>> result = run_experiment("fig4", fast=True)
"""

from collections.abc import Sequence

from repro.experiments import (  # noqa: F401 - imported to populate the registry
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig17,
    fig18,
    fig19,
    robustness,
    scaling,
    table01,
    transient_scenarios,
    trees,
)
from repro.experiments.executor import run_scenario
from repro.experiments.runner import (
    ExperimentResult,
    Panel,
    Provenance,
    Series,
    geometric_sweep,
    linear_sweep,
)
from repro.experiments.spec import (
    FAST,
    FULL,
    SMOKE,
    Axis,
    FidelityProfile,
    PanelSpec,
    ScenarioError,
    ScenarioSpec,
    SeriesPlan,
    register_scenario,
    scenario,
    scenario_ids,
    scenarios,
)
from repro.runtime import parallel_map, using_jobs

__all__ = [
    "FAST",
    "FULL",
    "SMOKE",
    "Axis",
    "ExperimentResult",
    "FidelityProfile",
    "Panel",
    "PanelSpec",
    "Provenance",
    "ScenarioError",
    "ScenarioSpec",
    "Series",
    "SeriesPlan",
    "experiment_ids",
    "geometric_sweep",
    "linear_sweep",
    "register_scenario",
    "registry",
    "run_experiment",
    "run_experiment_task",
    "run_experiments",
    "run_scenario",
    "scenario",
    "scenario_ids",
    "scenarios",
]


def experiment_ids() -> tuple[str, ...]:
    """All registered scenario ids, in a stable order."""
    return scenario_ids()


def run_experiment(experiment_id: str, fast: bool = False, **kwargs) -> ExperimentResult:
    """Run one registered scenario by id (back-compat shim).

    ``fast=True`` maps to the ``"fast"`` fidelity profile; use
    :func:`run_scenario` directly for the full declarative surface
    (named fidelities, parameter overrides, protocol subsets).  The
    pre-spec per-module kwargs keep working: ``seed`` (the Fig. 11/12
    simulation seed) maps to the executor's seed override, and a
    ``params`` preset instance (Table I) becomes a full override set.
    """
    fidelity = kwargs.pop("fidelity", None) or (FAST if fast else FULL)
    params = kwargs.pop("params", None)
    if params is not None:
        # The old table01.run(params=...) replaced the whole preset;
        # field-by-field overrides reproduce it through the spec path.
        import dataclasses

        overrides = dataclasses.asdict(params)
        overrides.update(kwargs.pop("overrides", None) or {})
        kwargs["overrides"] = overrides
    return run_scenario(scenario(experiment_id), fidelity, **kwargs)


def run_experiment_task(task: tuple[str, str]) -> ExperimentResult:
    """Run one whole ``(scenario id, fidelity)`` experiment.

    The pool task of ``repro-signaling all``.  The experiment's internal
    sweeps run serially inside the worker, so cross-experiment
    parallelism never nests process pools.
    """
    experiment_id, fidelity = task
    with using_jobs(1):
        return run_scenario(scenario(experiment_id), fidelity)


def run_experiments(
    experiment_ids: Sequence[str], fidelity: str = FULL, jobs: int | None = None
) -> list[ExperimentResult]:
    """Run several experiments, fanned across workers, in input order."""
    tasks = [(experiment_id, fidelity) for experiment_id in experiment_ids]
    return parallel_map(run_experiment_task, tasks, jobs=jobs)


def _registry_entry(scenario_id: str):
    def run(fast: bool = False, **kwargs) -> ExperimentResult:
        return run_experiment(scenario_id, fast=fast, **kwargs)

    run.__name__ = f"run_{scenario_id}"
    run.__doc__ = f"Run the {scenario_id!r} scenario (registry back-compat view)."
    return run


def registry() -> dict:
    """Back-compat view of the scenario registry: id -> ``run(fast)``."""
    return {sid: _registry_entry(sid) for sid in scenario_ids()}
