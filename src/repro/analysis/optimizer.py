"""Timer optimization: find the cost-optimal operating point.

Fig. 7 of the paper shows that SS and SS+RT have "relatively sensitive
optimal operating points" in the refresh timer.  This module makes the
optimum a first-class object: golden-section search (scipy) over
``log R`` for the integrated cost ``C = w*I + M``, plus a joint
``(R, T)`` grid refinement for protocols whose timeout matters.
``scipy.optimize`` loads on the first optimizer call, not with the
program.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.parameters import SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel

__all__ = ["OptimalTimers", "optimize_refresh_timer", "optimize_timers_jointly"]


@dataclasses.dataclass(frozen=True)
class OptimalTimers:
    """Result of a timer optimization."""

    protocol: Protocol
    refresh_interval: float
    timeout_interval: float
    cost: float
    weight: float

    @property
    def timeout_multiple(self) -> float:
        """``T / R`` at the optimum."""
        return self.timeout_interval / self.refresh_interval


def _cost_at(
    protocol: Protocol,
    params: SignalingParameters,
    refresh: float,
    timeout_multiple: float,
    weight: float,
) -> float:
    candidate = params.replace(
        refresh_interval=refresh, timeout_interval=timeout_multiple * refresh
    )
    return SingleHopModel(protocol, candidate).solve().integrated_cost(weight)


def optimize_refresh_timer(
    protocol: Protocol,
    params: SignalingParameters,
    weight: float = 10.0,
    timeout_multiple: float = 3.0,
    bounds: tuple[float, float] = (0.05, 500.0),
) -> OptimalTimers:
    """Minimize ``C(R)`` with ``T = timeout_multiple * R`` fixed.

    The search runs in log space (the cost surface spans decades).
    """
    if bounds[0] <= 0 or bounds[1] <= bounds[0]:
        raise ValueError(f"invalid bounds {bounds!r}")
    log_bounds = (math.log(bounds[0]), math.log(bounds[1]))

    def objective(log_refresh: float) -> float:
        return _cost_at(protocol, params, math.exp(log_refresh), timeout_multiple, weight)

    from scipy.optimize import minimize_scalar

    outcome = minimize_scalar(
        objective, bounds=log_bounds, method="bounded"
    )
    refresh = float(math.exp(outcome.x))
    # Guard against boundary optima (HS is flat in R, for instance):
    # compare against the bound endpoints explicitly.
    candidates = [refresh, bounds[0], bounds[1]]
    best = min(
        candidates,
        key=lambda r: _cost_at(protocol, params, r, timeout_multiple, weight),
    )
    return OptimalTimers(
        protocol=protocol,
        refresh_interval=best,
        timeout_interval=timeout_multiple * best,
        cost=_cost_at(protocol, params, best, timeout_multiple, weight),
        weight=weight,
    )


def optimize_timers_jointly(
    protocol: Protocol,
    params: SignalingParameters,
    weight: float = 10.0,
    refresh_bounds: tuple[float, float] = (0.05, 500.0),
    multiple_candidates: tuple[float, ...] = (1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0),
) -> OptimalTimers:
    """Optimize ``R`` for each candidate ``T/R`` and keep the best pair.

    Captures the paper's Fig. 8(a) observations: SS/SS+ER prefer
    ``T ~ 2R``, SS+RT prefers ``T`` just above ``R``, SS+RTR prefers
    long timeouts.
    """
    best: OptimalTimers | None = None
    for multiple in multiple_candidates:
        candidate = optimize_refresh_timer(
            protocol, params, weight, timeout_multiple=multiple, bounds=refresh_bounds
        )
        if best is None or candidate.cost < best.cost:
            best = candidate
    assert best is not None  # multiple_candidates is never empty
    return best
