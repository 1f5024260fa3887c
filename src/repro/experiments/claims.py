"""The paper's per-figure claims, as machine-checkable predicates.

Each :class:`FigureClaim` binds one sentence of the paper's evaluation
narrative to a predicate over the regenerated experiment.  The claims
registry powers ``repro-signaling report`` (the paper-vs-measured
evidence table) and complements the fuller shape checks in
``tests/experiments/test_figure_shapes.py``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable

from repro.experiments import run_scenario
from repro.experiments.runner import ExperimentResult

__all__ = ["ClaimOutcome", "FigureClaim", "evaluate_claims", "figure_claims", "render_report"]


@dataclasses.dataclass(frozen=True)
class FigureClaim:
    """One verifiable sentence from the paper's evaluation."""

    experiment_id: str
    claim: str
    check: Callable[[ExperimentResult], bool]


@dataclasses.dataclass(frozen=True)
class ClaimOutcome:
    """Result of evaluating one claim against a regenerated figure."""

    claim: FigureClaim
    holds: bool


def _series(result: ExperimentResult, panel: str, label: str):
    return result.panel(panel).series_by_label(label)


def figure_claims() -> tuple[FigureClaim, ...]:
    """Headline claims, one or two per evaluation figure."""
    return (
        FigureClaim(
            "fig4",
            "inconsistency and message rate both fall as sessions lengthen",
            lambda r: all(
                s.y[0] > s.y[-1]
                for panel in r.panels
                for s in panel.series
            ),
        ),
        FigureClaim(
            "fig4",
            "SS+ER's consistency gain over SS grows as sessions shrink",
            lambda r: (
                _series(r, "a: inconsistency ratio", "SS").y[0]
                / _series(r, "a: inconsistency ratio", "SS+ER").y[0]
                > _series(r, "a: inconsistency ratio", "SS").y[-1]
                / _series(r, "a: inconsistency ratio", "SS+ER").y[-1]
            ),
        ),
        FigureClaim(
            "fig5",
            "reliable transmission helps significantly at modest (5%) loss",
            lambda r: _series(r, "a: vs loss rate", "SS+RT").y[2]
            < 0.8 * _series(r, "a: vs loss rate", "SS").y[2],
        ),
        FigureClaim(
            "fig5",
            "inconsistency grows roughly linearly with channel delay",
            lambda r: all(
                s.y == tuple(sorted(s.y)) for s in r.panel("b: vs channel delay").series
            ),
        ),
        FigureClaim(
            "fig6",
            "short refresh timers buy consistency; long ones cut overhead",
            lambda r: all(
                _series(r, "a: inconsistency ratio", label).y[0]
                < _series(r, "a: inconsistency ratio", label).y[-1]
                and _series(r, "b: signaling message rate", label).y[0]
                > _series(r, "b: signaling message rate", label).y[-1]
                for label in ("SS", "SS+ER", "SS+RT", "SS+RTR")
            ),
        ),
        FigureClaim(
            "fig7",
            "SS and SS+RT have sensitive interior cost optima",
            lambda r: all(
                min(_series(r, "integrated cost", label).y)
                < 0.5 * min(
                    _series(r, "integrated cost", label).y[0],
                    _series(r, "integrated cost", label).y[-1],
                )
                for label in ("SS", "SS+RT")
            ),
        ),
        FigureClaim(
            "fig7",
            "SS+RTR with long timers matches hard-state cost",
            lambda r: min(_series(r, "integrated cost", "SS+RTR").y)
            < 1.2 * _series(r, "integrated cost", "HS").y[0],
        ),
        FigureClaim(
            "fig8",
            "all soft-state protocols degrade when T < R",
            lambda r: all(
                s.y[0] > 10 * min(s.y)
                for s in r.panel("a: vs state-timeout timer").series
                if s.label != "HS"
            ),
        ),
        FigureClaim(
            "fig8",
            "HS is the most sensitive to the retransmission timer",
            lambda r: (
                max(_series(r, "b: vs retransmission timer", "HS").y)
                - min(_series(r, "b: vs retransmission timer", "HS").y)
            )
            > (
                max(_series(r, "b: vs retransmission timer", "SS+RTR").y)
                - min(_series(r, "b: vs retransmission timer", "SS+RTR").y)
            ),
        ),
        FigureClaim(
            "fig9",
            "SS+RTR's consistency is insensitive to the refresh rate",
            lambda r: max(_series(r, "tradeoff", "SS+RTR").x)
            < 2.0 * min(_series(r, "tradeoff", "SS+RTR").x),
        ),
        FigureClaim(
            "fig10",
            "HS reaches the tightest consistency levels",
            lambda r: min(_series(r, "a: varying update rate", "HS").x)
            <= min(
                min(_series(r, "a: varying update rate", label).x)
                for label in ("SS", "SS+ER", "SS+RT")
            ),
        ),
        FigureClaim(
            "fig11",
            "deterministic-timer simulation tracks the model's inconsistency",
            lambda r: all(
                abs(sim - model) <= max(0.4 * model, 1e-3)
                for label in ("SS", "SS+ER", "SS+RT", "SS+RTR", "HS")
                for model, sim in zip(
                    _series(r, "a: inconsistency ratio", label).y,
                    _series(r, "a: inconsistency ratio", f"{label} sim").y,
                )
            ),
        ),
        FigureClaim(
            "fig12",
            "simulation tracks the model across refresh-timer settings",
            lambda r: all(
                abs(sim - model) <= max(0.4 * model, 1e-3)
                for label in ("SS", "SS+ER", "SS+RT", "SS+RTR", "HS")
                for model, sim in zip(
                    _series(r, "a: inconsistency ratio", label).y,
                    _series(r, "a: inconsistency ratio", f"{label} sim").y,
                )
            ),
        ),
        FigureClaim(
            "fig17",
            "per-hop inconsistency grows ~linearly with distance",
            lambda r: all(
                tuple(s.y) == tuple(sorted(s.y))
                for s in r.panel("per-hop inconsistency").series
            ),
        ),
        FigureClaim(
            "fig17",
            "SS+RT reaches HS-comparable consistency, HS slightly ahead",
            lambda r: _series(r, "per-hop inconsistency", "HS").y[-1]
            <= _series(r, "per-hop inconsistency", "SS+RT").y[-1]
            <= 1.25 * _series(r, "per-hop inconsistency", "HS").y[-1],
        ),
        FigureClaim(
            "fig18",
            "inconsistency and overhead grow monotonically with hops",
            lambda r: all(
                tuple(s.y) == tuple(sorted(s.y))
                for panel in r.panels
                for s in panel.series
            ),
        ),
        FigureClaim(
            "fig18",
            "hop-by-hop reliability adds little overhead over SS",
            lambda r: (
                _series(r, "b: signaling message rate", "SS+RT").y[-1]
                - _series(r, "b: signaling message rate", "SS").y[-1]
            )
            / _series(r, "b: signaling message rate", "SS").y[-1]
            < 0.25,
        ),
        FigureClaim(
            "fig19",
            "multi-hop SS has a sharp refresh-timer sweet spot",
            lambda r: (
                _series(r, "a: inconsistency ratio", "SS").y[-1]
                > 5 * min(_series(r, "a: inconsistency ratio", "SS").y)
            ),
        ),
    )


def evaluate_claims(
    claims: Iterable[FigureClaim] | None = None,
    fidelity: str = "fast",
) -> list[ClaimOutcome]:
    """Regenerate each figure once, at the scenario fidelity profile
    ``fidelity``, and evaluate its claims."""
    claims = tuple(claims) if claims is not None else figure_claims()
    cache: dict[str, ExperimentResult] = {}
    outcomes = []
    for claim in claims:
        if claim.experiment_id not in cache:
            cache[claim.experiment_id] = run_scenario(claim.experiment_id, fidelity)
        outcomes.append(
            ClaimOutcome(claim=claim, holds=claim.check(cache[claim.experiment_id]))
        )
    return outcomes


def render_report(
    outcomes: Iterable[ClaimOutcome] | None = None,
    fidelity: str = "fast",
) -> str:
    """Pass/fail table for every figure claim, evaluated at ``fidelity``
    unless ``outcomes`` are given."""
    if outcomes is None:
        outcomes = evaluate_claims(fidelity=fidelity)
    outcomes = list(outcomes)
    lines = ["Paper claims vs this reproduction:"]
    for outcome in outcomes:
        mark = "PASS" if outcome.holds else "FAIL"
        lines.append(f"  [{mark}] {outcome.claim.experiment_id:6s} {outcome.claim.claim}")
    passed = sum(1 for o in outcomes if o.holds)
    lines.append(f"  {passed}/{len(outcomes)} claims hold")
    return "\n".join(lines)
