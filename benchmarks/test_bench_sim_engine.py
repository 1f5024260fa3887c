"""Benchmarks for the scalar event engine.

These replications run only on the event engine (the vectorized replay
covers SS and SS+ER under deterministic timers): SS+RT and HS at the
paper's Kazaa defaults, SS+RT on a two-level binary tree and SS on a
4-hop Gilbert-Elliott chain.  Most of the engine's work is restarting
timers, which run as cancellable scheduled calls (see
``repro.sim.engine.RestartableTimer``), so these benches show what
each restart costs.

Each bench times its replications over ``ROUNDS`` rounds, so a trend
row is a median of several runs rather than one sample, then runs them
once more outside the clock and asserts that the timed and untimed runs
give bit-identical samples.
"""

from __future__ import annotations

import pytest

from repro.core.multihop.topology import Topology
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.faults import GilbertElliottParameters
from repro.multihop.chain import simulate_multihop_replications
from repro.multihop.config import MultiHopSimConfig
from repro.multihop.tree import simulate_tree_replications
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import simulate_replications

SESSIONS = 40
REPLICATIONS = 3
HORIZON = 8000.0
ROUNDS = 5


def _samples(results):
    return {metric: results.samples(metric) for metric in results.metrics()}


def _run_twice(benchmark, replicate):
    timed = benchmark.pedantic(replicate, rounds=ROUNDS, iterations=1)
    again = replicate()
    assert _samples(timed) == _samples(again)
    return timed


@pytest.mark.parametrize("protocol", [Protocol.SS_RT, Protocol.HS], ids=lambda p: p.value)
def test_bench_sim_engine_singlehop(benchmark, protocol):
    config = SingleHopSimConfig(
        protocol=protocol, params=kazaa_defaults(), sessions=SESSIONS, seed=5
    )
    results = _run_twice(
        benchmark, lambda: simulate_replications(config, REPLICATIONS, engine="scalar")
    )
    assert results.count("inconsistency_ratio") == REPLICATIONS


def test_bench_sim_engine_tree(benchmark):
    topology = Topology.kary(2, 2)
    config = MultiHopSimConfig(
        protocol=Protocol.SS_RT,
        params=reservation_defaults().replace(hops=topology.num_edges),
        horizon=HORIZON,
        warmup=100.0,
        seed=5,
    )
    results = _run_twice(
        benchmark, lambda: simulate_tree_replications(config, topology, REPLICATIONS)
    )
    assert results.count("inconsistency_ratio") == REPLICATIONS


def test_bench_sim_engine_gilbert_chain(benchmark):
    config = MultiHopSimConfig(
        protocol=Protocol.SS,
        params=reservation_defaults().replace(hops=4),
        horizon=HORIZON,
        warmup=100.0,
        seed=5,
        gilbert=GilbertElliottParameters(0.01, 0.5, 0.1, 1.0),
    )
    results = _run_twice(
        benchmark, lambda: simulate_multihop_replications(config, REPLICATIONS)
    )
    assert results.count("inconsistency_ratio") == REPLICATIONS
