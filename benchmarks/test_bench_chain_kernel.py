"""Benchmarks for the O(hops) block-tridiagonal chain kernel.

The headline claim (ISSUE 10): at 128 hops on the heterogeneous
scaling workload the structured backend must beat the generic dense
per-point path by >= 5x, while matching it to solver tolerance.  The
nightly bench job records this file as ``BENCH_chain_kernel.json`` so
the kernel has its own trend series.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import templates
from repro.core.multihop import Topology, TreeModel
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.experiments.scaling import heterogeneous_path

HOPS = 128


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _scaling_points():
    """The 128-hop heterogeneous decoding grid of the scaling scenario."""
    params = reservation_defaults().replace(hops=HOPS)
    hops = heterogeneous_path(HOPS)
    return [
        (params.with_coupled_timers(refresh), hops)
        for refresh in (2.0, 3.0, 5.0, 8.0, 10.0, 15.0)
    ]


def test_bench_chain_kernel_128_hops_speedup(run_once):
    """>= 5x over the generic dense path at 128 hops, same answers."""
    points = _scaling_points()
    chain = Topology.chain(HOPS)
    template = templates.tree_template(Protocol.SS, chain)
    template.solve_structured(points[:1])  # warm caches
    fast, fast_seconds = _timed(lambda: run_once(lambda: template.solve_structured(points)))
    reference, reference_seconds = _timed(
        lambda: [
            TreeModel(Protocol.SS, point_params, chain, point_hops).solve()
            for point_params, point_hops in points
        ]
    )
    assert len(fast) == len(points)
    for fast_solution, reference_solution in zip(fast, reference):
        for state, probability in reference_solution.stationary.items():
            assert fast_solution.stationary[state] == pytest.approx(
                probability, abs=1e-9
            )
    if os.environ.get("CI"):
        pytest.skip(
            f"CI runner: recorded structured {fast_seconds:.3f}s vs "
            f"dense {reference_seconds:.3f}s without asserting"
        )
    assert fast_seconds * 5.0 < reference_seconds, (
        f"expected >= 5x: structured {fast_seconds:.3f}s vs "
        f"dense {reference_seconds:.3f}s "
        f"({reference_seconds / fast_seconds:.1f}x)"
    )


def test_bench_chain_kernel_all_protocols(benchmark):
    """The structured backend across the whole multihop family."""
    points = _scaling_points()[:3]
    tasks = [
        (protocol, point_params, hops)
        for protocol in Protocol.multihop_family()
        for point_params, hops in points
    ]
    templates.solve_heterogeneous_structured_tasks(tasks[:1])  # warm caches

    solutions = benchmark.pedantic(
        lambda: templates.solve_heterogeneous_structured_tasks(tasks),
        rounds=3,
        iterations=1,
    )
    assert len(solutions) == len(tasks)
    for solution, (protocol, _, _) in zip(solutions, tasks):
        assert solution.protocol is protocol
        assert 0.0 <= solution.inconsistency_ratio <= 1.0
