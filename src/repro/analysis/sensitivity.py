"""Sensitivity of the paper's conclusions to parameter decoding.

The published PDF's parameter digits are glyph-garbled
(:func:`plausible_decodings` lists the candidate readings of the
contested ones).  This module re-checks the paper's qualitative claims
across that neighborhood, so the ``claims`` verb can state that no
conclusion hinges on a contested digit.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

from repro.core.parameters import SignalingParameters, kazaa_defaults
from repro.core.protocols import Protocol
from repro.experiments.spec import apply_overrides
from repro.runtime import solve_singlehop_batch

__all__ = ["ClaimCheck", "check_claims", "default_claims", "plausible_decodings"]


@dataclasses.dataclass(frozen=True)
class ClaimCheck:
    """Outcome of one qualitative claim on one parameterization."""

    claim: str
    params: SignalingParameters
    holds: bool
    detail: str


def plausible_decodings() -> tuple[SignalingParameters, ...]:
    """Parameter sets spanning the ambiguous digits of the paper.

    Varies the contested values: update interval (20/30/60/90 s),
    retransmission multiple (K = 4*Delta or 5*Delta) and delay
    (30/50 ms); the uncontested values stay at their decoded defaults.
    """
    candidates = []
    for update_interval in (20.0, 30.0, 60.0, 90.0):
        for retx_multiple in (4.0, 5.0):
            for delay in (0.03, 0.05):
                # Routed through the scenario API's override validation
                # so the decoding grid and CLI `--set` share one path.
                candidates.append(
                    apply_overrides(
                        kazaa_defaults(),
                        {
                            "update_rate": 1.0 / update_interval,
                            "retransmission_interval": retx_multiple * delay,
                            "delay": delay,
                        },
                    )
                )
    return tuple(candidates)


def default_claims() -> dict[str, Callable[[dict[Protocol, object]], tuple[bool, str]]]:
    """The paper's headline qualitative claims as checkable predicates."""

    def inconsistency(solutions, protocol):
        return solutions[protocol].inconsistency_ratio

    def message_rate(solutions, protocol):
        return solutions[protocol].normalized_message_rate

    def claim_er_improves(solutions):
        ss = inconsistency(solutions, Protocol.SS)
        er = inconsistency(solutions, Protocol.SS_ER)
        return er < ss, f"I(SS+ER)={er:.4g} < I(SS)={ss:.4g}"

    def claim_er_cheap(solutions):
        ss = message_rate(solutions, Protocol.SS)
        er = message_rate(solutions, Protocol.SS_ER)
        overhead = (er - ss) / ss if ss > 0 else float("inf")
        return overhead < 0.05, f"M overhead of ER over SS = {overhead:.2%}"

    def claim_rtr_comparable_hs(solutions):
        rtr = inconsistency(solutions, Protocol.SS_RTR)
        hs = inconsistency(solutions, Protocol.HS)
        ratio = rtr / hs if hs > 0 else float("inf")
        return ratio < 1.5, f"I(SS+RTR)/I(HS) = {ratio:.3g}"

    def claim_rt_costs_more(solutions):
        ss = message_rate(solutions, Protocol.SS)
        rt = message_rate(solutions, Protocol.SS_RT)
        return rt > ss, f"M(SS+RT)={rt:.4g} > M(SS)={ss:.4g}"

    def claim_hs_cheapest(solutions):
        hs = message_rate(solutions, Protocol.HS)
        others = min(
            message_rate(solutions, p) for p in Protocol if p is not Protocol.HS
        )
        return hs < others, f"M(HS)={hs:.4g} < min(others)={others:.4g}"

    return {
        "explicit removal improves consistency": claim_er_improves,
        "explicit removal adds <5% message overhead": claim_er_cheap,
        "SS+RTR achieves HS-comparable consistency": claim_rtr_comparable_hs,
        "reliable triggers cost extra messages": claim_rt_costs_more,
        "HS has the lowest message overhead": claim_hs_cheapest,
    }


def check_claims(
    parameterizations: Sequence[SignalingParameters] | None = None,
    claims: dict[str, Callable] | None = None,
    jobs: int | None = None,
) -> list[ClaimCheck]:
    """Evaluate every claim on every parameterization.

    The whole grid is one flat batch of ``(protocol, params)`` points:
    the runtime dedupes repeats through the memo cache and solves the
    misses through the compiled-template fast path (fanned across
    workers when ``jobs > 1``).  The (cheap, unpicklable) claim
    predicates run in the parent, in grid order, so the report is
    deterministic.
    """
    parameterizations = tuple(parameterizations or plausible_decodings())
    claims = claims or default_claims()
    protocols = tuple(Protocol)
    tasks = [
        (protocol, params) for params in parameterizations for protocol in protocols
    ]
    solutions = solve_singlehop_batch(tasks, jobs=jobs)
    suites = [
        dict(zip(protocols, solutions[i * len(protocols) : (i + 1) * len(protocols)]))
        for i in range(len(parameterizations))
    ]
    checks: list[ClaimCheck] = []
    for params, solutions in zip(parameterizations, suites):
        for name, predicate in claims.items():
            holds, detail = predicate(solutions)
            checks.append(ClaimCheck(claim=name, params=params, holds=holds, detail=detail))
    return checks


def robustness_report(
    checks: Sequence[ClaimCheck] | None = None, jobs: int | None = None
) -> str:
    """Summarize how many parameterizations support each claim."""
    checks = checks if checks is not None else check_claims(jobs=jobs)
    by_claim: dict[str, list[ClaimCheck]] = {}
    for check in checks:
        by_claim.setdefault(check.claim, []).append(check)
    lines = ["Claim robustness across plausible parameter decodings:"]
    for claim, group in by_claim.items():
        supported = sum(1 for c in group if c.holds)
        lines.append(f"  {supported}/{len(group)}  {claim}")
        for failing in (c for c in group if not c.holds):
            lines.append(
                f"      fails at 1/lambda_u={1 / failing.params.update_rate:.0f}s, "
                f"K={failing.params.retransmission_interval:.2f}s, "
                f"Delta={failing.params.delay * 1000:.0f}ms: {failing.detail}"
            )
    return "\n".join(lines)
