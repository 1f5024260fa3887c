"""Ablation benchmarks for the protocol mechanisms the paper compares.

Each benchmark isolates one mechanism on the hard-state/soft-state
spectrum and measures its marginal effect, regenerating the ablation
evidence behind the paper's conclusions:

* explicit removal (SS -> SS+ER),
* reliable triggers (SS -> SS+RT),
* reliable removal (SS+ER -> SS+RTR),
* refresh machinery on top of hard state (HS vs SS+RTR),
* the timeout-multiple choice T = 3R,
* the decoded-parameter sensitivity sweep.
"""

from __future__ import annotations

from repro.analysis.sensitivity import check_claims
from repro.core.parameters import kazaa_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel, solve_all


def test_bench_ablation_mechanism_ladder(benchmark):
    """Solve the full protocol ladder; check each rung's marginal gain."""

    def ladder():
        return solve_all(kazaa_defaults())

    solutions = benchmark(ladder)
    inconsistency = {p: s.inconsistency_ratio for p, s in solutions.items()}
    # Each added mechanism must not hurt consistency.
    assert inconsistency[Protocol.SS_ER] < inconsistency[Protocol.SS]
    assert inconsistency[Protocol.SS_RT] < inconsistency[Protocol.SS]
    assert inconsistency[Protocol.SS_RTR] < inconsistency[Protocol.SS_ER]


def test_bench_ablation_timeout_multiple(benchmark):
    """T = 3R against alternative multiples for pure SS."""
    params = kazaa_defaults()

    def sweep():
        costs = {}
        for multiple in (1.5, 2.0, 3.0, 5.0, 10.0):
            candidate = params.with_coupled_timers(
                params.refresh_interval, timeout_multiple=multiple
            )
            solution = SingleHopModel(Protocol.SS, candidate).solve()
            costs[multiple] = solution.integrated_cost(10.0)
        return costs

    costs = benchmark(sweep)
    # The paper's choice (3R) must be competitive: within 25% of the
    # best multiple in the sweep.
    assert costs[3.0] < 1.25 * min(costs.values())


def test_bench_ablation_decoding_sensitivity(run_once):
    """All headline claims across the 16 plausible parameter decodings."""
    checks = run_once(check_claims)
    assert all(check.holds for check in checks)
