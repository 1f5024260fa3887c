"""Experiment harness: one declarative scenario spec per table/figure.

Importing this package registers every canned scenario
(:mod:`repro.experiments.spec` holds the registry); the generic
executor runs any of them — or any parameterized variant — through the
batch solve path:

>>> from repro.experiments import run_scenario
>>> result = run_scenario("fig4", fidelity="fast")
>>> result.experiment_id
'fig4'

:func:`run_experiments` fans several whole scenarios across worker
processes (the ``repro-signaling all`` path).
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
