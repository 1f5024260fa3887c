"""Micro-benchmarks of the substrates the experiments run on.

These track the cost of the building blocks so performance regressions
in the kernel or the linear algebra show up independently of the
figure-level benchmarks.
"""

from __future__ import annotations

from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.core.multihop import Topology, TreeModel
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import SingleHopSimulation
from repro.sim.engine import Environment


def test_bench_engine_event_throughput(benchmark):
    """Raw event-loop throughput: a chain of 10k scheduled calls."""

    def run():
        env = Environment()

        def tick(left):
            if left > 1:
                env.call_later(1.0, tick, left - 1)

        env.call_later(1.0, tick, 10_000)
        env.run()
        return env.now

    assert benchmark(run) == 10_000.0


def test_bench_singlehop_solve(benchmark):
    """One full single-hop model solve (stationary + absorption)."""
    params = kazaa_defaults()

    def solve():
        return SingleHopModel(Protocol.SS_RTR, params).solve()

    solution = benchmark(solve)
    assert 0.0 < solution.inconsistency_ratio < 1.0


def test_bench_multihop_solve_20_hops(benchmark):
    """One 20-hop chain solve (41-state dense linear system)."""
    params = reservation_defaults()

    def solve():
        return TreeModel(Protocol.SS, params, Topology.chain(params.hops)).solve()

    solution = benchmark(solve)
    assert 0.0 < solution.inconsistency_ratio < 1.0


def test_bench_singlehop_simulation_sessions(run_once):
    """Simulate 100 SS+ER sessions end to end."""
    config = SingleHopSimConfig(
        protocol=Protocol.SS_ER, params=kazaa_defaults(), sessions=100, seed=3
    )
    result = run_once(lambda: SingleHopSimulation(config).run())
    assert result.sessions == 100
