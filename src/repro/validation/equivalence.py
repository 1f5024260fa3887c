"""Student-t equivalence tests between simulation and analytic metrics.

The paper's validation figures (Figs. 11-12) overlay replicated
discrete-event simulations — deterministic timers, 95% confidence
intervals — on the exponential-timer analytic curves, and argue the two
agree.  This module turns that visual argument into a per-point test.

The simulated estimate at each point is a sample mean with a Student-t
half-width ``hw`` (from :func:`repro.sim.stats.student_t_interval`,
already carrying the t quantile for the replication count).  The
analytic prediction ``m`` is declared *equivalent* to the simulated
mean ``s`` when::

    |s - m| <= max(ci_multiplier * hw,  rel_tol * |m|,  abs_floor)

i.e. the model must sit within a widened confidence band, where the
widening terms absorb the paper's documented *systematic* gaps between
the deterministic-timer simulations and the exponential-timer model
(a few percent on the inconsistency ratio, 5-15% on the message rate),
and ``abs_floor`` keeps near-zero metrics from demanding impossible
relative precision.  This is a TOST-style equivalence margin: the
statistical term shrinks as replications grow, while the relative term
encodes the accepted model bias.
"""

from __future__ import annotations

import dataclasses
import math

from repro.validation.report import PointCheck

__all__ = [
    "CURVE_EQUIVALENCE_CRITERIA",
    "CurveCriterion",
    "EquivalenceCriterion",
    "SIM_EQUIVALENCE_CRITERIA",
    "equivalence_curve",
    "equivalence_point",
]


@dataclasses.dataclass(frozen=True)
class EquivalenceCriterion:
    """Margin parameters of one sim-vs-model equivalence test."""

    ci_multiplier: float = 2.5
    rel_tol: float = 0.35
    abs_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.ci_multiplier < 0 or self.rel_tol < 0 or self.abs_floor < 0:
            raise ValueError("equivalence margins must be non-negative")

    def allowance(self, model: float, half_width: float) -> float:
        """The allowed ``|sim - model|`` at one point."""
        return max(
            self.ci_multiplier * half_width,
            self.rel_tol * abs(model),
            self.abs_floor,
        )


#: Per simulated metric (the :data:`repro.experiments.spec.SIM_METRICS`
#: names): the margins used when a scenario does not override them.
#: The inconsistency band is wider than the message-rate band in
#: relative terms because deterministic timers bias soft-state timeouts
#: downward most at short sessions (paper §III-A.3); the floors stop
#: ~1e-4-scale inconsistency ratios from failing on noise.
SIM_EQUIVALENCE_CRITERIA: dict[str, EquivalenceCriterion] = {
    "inconsistency": EquivalenceCriterion(
        ci_multiplier=2.5, rel_tol=0.40, abs_floor=1e-3
    ),
    "message_rate": EquivalenceCriterion(
        ci_multiplier=2.5, rel_tol=0.30, abs_floor=1e-6
    ),
}


@dataclasses.dataclass(frozen=True)
class CurveCriterion:
    """Equivalence margin for a whole time-dependent curve.

    Each grid point is tested with ``point`` exactly like a stationary
    metric, but the curve as a whole passes as long as at most
    ``max_violation_fraction`` of its points violate their bands.  A
    transient curve crosses steep ramps where a deterministic-timer
    simulation moves in steps while the exponential-timer model moves
    smoothly; scenario grids avoid the worst ramps, and the violation
    budget absorbs the residual phase error without letting a curve
    that is wrong *everywhere* pass.
    """

    point: EquivalenceCriterion = EquivalenceCriterion()
    max_violation_fraction: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_violation_fraction < 1.0:
            raise ValueError(
                "max_violation_fraction must be in [0, 1), got "
                f"{self.max_violation_fraction}"
            )


#: Per curve metric: margins for the transient consistency curves.  The
#: 0.15 absolute floor reflects that both sides estimate a probability
#: in [0, 1] from O(10) replications of a step-shaped process; the
#: relative term matches the stationary inconsistency band.
CURVE_EQUIVALENCE_CRITERIA: dict[str, CurveCriterion] = {
    "consistency": CurveCriterion(
        point=EquivalenceCriterion(ci_multiplier=2.5, rel_tol=0.35, abs_floor=0.15),
        max_violation_fraction=0.25,
    ),
}


def equivalence_curve(
    label: str,
    grid: tuple[float, ...],
    model: tuple[float, ...],
    sim_means: tuple[float, ...],
    half_widths: tuple[float, ...],
    criterion: CurveCriterion,
    axis: str = "t",
) -> tuple[tuple[PointCheck, ...], bool]:
    """Test a simulated curve against its analytic twin on one grid.

    Each point is labelled ``"{label} @ {axis}={x:g}"``: ``axis`` is
    ``"t"`` on a time grid and ``"x"`` on a swept parameter.  Returns
    the per-point checks plus the curve-level verdict: passed when the
    fraction of violating points stays within the criterion's budget
    (an empty grid fails).
    """
    points = tuple(
        equivalence_point(f"{label} @ {axis}={x:g}", m, s, hw, criterion.point)
        for x, m, s, hw in zip(grid, model, sim_means, half_widths)
    )
    if not points:
        return points, False
    violations = sum(1 for point in points if not point.passed)
    return points, violations / len(points) <= criterion.max_violation_fraction


def equivalence_point(
    label: str,
    model: float,
    sim_mean: float,
    half_width: float,
    criterion: EquivalenceCriterion,
) -> PointCheck:
    """Test one simulated point against its analytic prediction.

    Returns a :class:`~repro.validation.report.PointCheck` whose
    ``tolerance`` records the realized allowance.  Non-finite inputs
    fail outright (tolerance 0) rather than raising, so one broken
    point cannot abort a whole report.
    """
    values = (model, sim_mean, half_width)
    if not all(math.isfinite(v) for v in values):
        return PointCheck(
            label=label,
            expected=model,
            observed=sim_mean,
            tolerance=0.0,
            passed=False,
        )
    tolerance = criterion.allowance(model, half_width)
    return PointCheck(
        label=label,
        expected=model,
        observed=sim_mean,
        tolerance=tolerance,
        passed=abs(sim_mean - model) <= tolerance,
    )
