"""The sweep path every experiment shares.

A sweep is a flat batch of ``(protocol, *point)`` tasks for one model
family, named by its :data:`repro.runtime.solvers.FAMILIES` tag and
handed to :func:`repro.runtime.solve_batch`, which dedupes repeated
points through the memo cache and fans cache misses across the process
pool when a worker count is configured (``--jobs`` / ``REPRO_JOBS``).
Results come back in task order, so output is identical to serial
per-point loops.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopSolution
from repro.experiments.runner import Series
from repro.runtime import solve_batch

__all__ = ["metric_series", "parametric_singlehop_series"]


def _solved_by_protocol(
    family: str,
    sweep: Sequence[float],
    make_point: Callable[[float], object],
    protocols: Sequence[Protocol],
    jobs: int | None,
) -> list[list]:
    """Solve every ``(protocol, x)`` pair in one batch, grouped by protocol.

    ``make_point(x)`` returns the task inputs after the protocol: bare
    parameters, which are wrapped in a one-tuple, or a tuple such as
    ``(params, hop_profile)``, ``(params, topology)`` or
    ``(params, gilbert)``.
    """
    points = [make_point(x) for x in sweep]
    points = [point if isinstance(point, tuple) else (point,) for point in points]
    tasks = [(protocol, *point) for protocol in protocols for point in points]
    solutions = solve_batch(family, tasks, jobs)
    n = len(points)
    return [solutions[k * n : (k + 1) * n] for k in range(len(protocols))]


def metric_series(
    family: str,
    xs: Sequence[float],
    make_point: Callable[[float], object],
    metric: Callable[[object], float],
    protocols: Sequence[Protocol],
    jobs: int | None = None,
) -> list[Series]:
    """Sweep ``xs`` through the model family ``family``; one series per protocol.

    ``family`` is a :data:`repro.runtime.solvers.FAMILIES` tag and
    ``make_point(x)`` builds one sweep point's task inputs for it.  Each
    series is labelled with its protocol's name.
    """
    xs = tuple(xs)
    groups = _solved_by_protocol(family, xs, make_point, protocols, jobs)
    return [
        Series(protocol.value, xs, tuple(metric(solution) for solution in group))
        for protocol, group in zip(protocols, groups)
    ]


def parametric_singlehop_series(
    sweep: Sequence[float],
    make_params: Callable[[float], SignalingParameters],
    x_metric: Callable[[SingleHopSolution], float],
    y_metric: Callable[[SingleHopSolution], float],
    protocols: Sequence[Protocol],
    jobs: int | None = None,
) -> list[Series]:
    """Trade-off curves: sweep a hidden parameter, plot metric vs metric.

    Used for Figs. 9-10, which plot message overhead against
    inconsistency while a parameter (R, lambda_u or Delta) varies along
    the curve; each curve's points are sorted by ``x_metric``.
    """
    groups = _solved_by_protocol("singlehop", tuple(sweep), make_params, protocols, jobs)
    return [
        Series.from_points(
            protocol.value,
            sorted((x_metric(solution), y_metric(solution)) for solution in group),
        )
        for protocol, group in zip(protocols, groups)
    ]
