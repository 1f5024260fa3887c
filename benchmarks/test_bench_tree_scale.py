"""Benchmark: tree solves past the old 4096-state wall.

The lumped and iterative tree backends are a different workload from
every other bench: orbit enumeration plus a sparse solve an order of
magnitude past what direct enumeration could reach.  The nightly bench
job records this file separately as ``BENCH_tree_scale.json`` so the
scale backends have their own performance trajectory.
"""

from __future__ import annotations

import math

from repro.core.multihop import (
    LumpedTreeModel,
    Topology,
    TreeModel,
    select_tree_backend,
)
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.experiments import run_scenario


def _params_for(topology):
    return reservation_defaults().replace(hops=topology.num_edges)


def test_bench_lumped_binary_depth3(run_once):
    # 15129 raw states -> 741 orbits: the wall-breaking solve.
    topology = Topology.kary(2, 3)
    assert select_tree_backend(topology) == "lumped"
    solution = run_once(
        lambda: LumpedTreeModel(Protocol.SS, _params_for(topology), topology).solve()
    )
    assert 0.0 < solution.inconsistency_ratio < 1.0
    assert math.isfinite(solution.message_rate)


def test_bench_lumped_star64(run_once):
    # 3^64 raw states -> 2211 orbits: width is effectively free.
    topology = Topology.star(64)
    assert select_tree_backend(topology) == "lumped"
    solution = run_once(
        lambda: LumpedTreeModel(Protocol.SS, _params_for(topology), topology).solve()
    )
    assert 0.0 < solution.inconsistency_ratio < 1.0


def test_bench_iterative_star8(run_once):
    # Above the direct cap on the raw space: ILU + GMRES on 6561 states.
    topology = Topology.star(8)
    solution = run_once(
        lambda: TreeModel(
            Protocol.SS,
            _params_for(topology),
            topology,
            max_states=65536,
            solver="iterative",
        ).solve()
    )
    lumped = LumpedTreeModel(Protocol.SS, _params_for(topology), topology).solve()
    assert solution.inconsistency_ratio == lumped.inconsistency_ratio or abs(
        solution.inconsistency_ratio - lumped.inconsistency_ratio
    ) <= 1e-8 * lumped.inconsistency_ratio


def test_bench_direct_vs_lumped_crossover(run_once):
    # The largest direct solve still under the cap, for a baseline the
    # trend series can compare the lumped curve against.
    topology = Topology.star(7)  # 2187 raw states
    assert select_tree_backend(topology) == "direct"
    solution = run_once(
        lambda: TreeModel(Protocol.SS, _params_for(topology), topology).solve()
    )
    lumped = LumpedTreeModel(Protocol.SS, _params_for(topology), topology).solve()
    assert solution.inconsistency_ratio == lumped.inconsistency_ratio or abs(
        solution.inconsistency_ratio - lumped.inconsistency_ratio
    ) <= 1e-9 * lumped.inconsistency_ratio


def test_bench_tree_deep_scenario(run_once):
    result = run_once(run_scenario, "tree_deep", "fast")
    series = result.panel("a: any-leaf inconsistency").series_by_label("SS binary")
    assert series.x == (1.0, 2.0, 3.0)
    assert all(math.isfinite(y) for y in series.y)


def test_bench_tree_wide_scenario(run_once):
    result = run_once(run_scenario, "tree_wide", "fast")
    series = result.panel("a: any-leaf inconsistency").series_by_label("SS star")
    assert series.y[-1] > series.y[0]
