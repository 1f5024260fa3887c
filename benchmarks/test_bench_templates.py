"""Benchmarks for the compiled-template batched solve path.

The headline claim (ISSUE 2): on a 1000-point single-hop sweep the
template path must beat the per-point model path by >= 5x in a single
process, with dense results matching the reference bit for bit.  The
multi-hop benchmarks record the structure-cached sparse path against
the dict-built reference on the 128-hop scaling regime.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import templates
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.core.multihop import Topology, TreeModel
from repro.experiments.runner import geometric_sweep
from repro.experiments.scaling import heterogeneous_path
from repro.runtime import global_cache, solve_singlehop_batch


def _timed(func):
    start = time.perf_counter()
    result = func()
    return result, time.perf_counter() - start


def _singlehop_sweep_tasks():
    """1000 distinct points: 200 delays x 5 protocols (no cache repeats)."""
    base = kazaa_defaults()
    delays = geometric_sweep(0.001, 0.3, 200)
    return [
        (protocol, base.replace(delay=delay))
        for protocol in Protocol
        for delay in delays
    ]


def test_bench_singlehop_template_speedup(run_once):
    """>= 5x over the per-point path on a 1000-point single-hop sweep."""
    tasks = _singlehop_sweep_tasks()
    templates.solve_singlehop_tasks(tasks[:5])  # warm the compile cache
    fast, fast_seconds = _timed(
        lambda: run_once(lambda: templates.solve_singlehop_tasks(tasks))
    )
    reference, reference_seconds = _timed(
        lambda: [SingleHopModel(protocol, params).solve() for protocol, params in tasks]
    )
    assert len(fast) == len(tasks)
    for fast_solution, reference_solution in zip(fast, reference):
        assert fast_solution.stationary == reference_solution.stationary
        assert fast_solution.message_breakdown == reference_solution.message_breakdown
        assert fast_solution.expected_receiver_lifetime == (
            reference_solution.expected_receiver_lifetime
        )
    if os.environ.get("CI"):
        # Shared CI runners have noisy, oversubscribed cores; the
        # wall-clock claim is asserted on real hardware only (the
        # parity asserts above always run).
        pytest.skip(
            f"CI runner: recorded template {fast_seconds:.3f}s vs "
            f"per-point {reference_seconds:.3f}s without asserting"
        )
    assert fast_seconds * 5.0 < reference_seconds, (
        f"expected >= 5x: template {fast_seconds:.3f}s vs "
        f"per-point {reference_seconds:.3f}s "
        f"({reference_seconds / fast_seconds:.1f}x)"
    )


def test_bench_singlehop_batch_through_runtime(benchmark):
    """The full runtime batch helper (cache + templates), cold cache."""
    tasks = _singlehop_sweep_tasks()

    def cold():
        global_cache().clear()
        return solve_singlehop_batch(tasks, jobs=1)

    solutions = benchmark.pedantic(cold, rounds=3, iterations=1)
    assert len(solutions) == len(tasks)
    global_cache().clear()


def test_bench_multihop_sparse_template_128_hops(run_once):
    """Structure-cached sparse solves across a 128-hop decoding grid."""
    params = reservation_defaults().replace(hops=128)
    hops = heterogeneous_path(128)
    points = [
        (params.with_coupled_timers(refresh), hops)
        for refresh in (2.0, 3.0, 5.0, 8.0, 10.0, 15.0)
    ]
    chain = Topology.chain(128)
    template = templates.tree_template(Protocol.SS_RT, chain)
    template.solve_batch(points[:1])  # warm the compile + symbolic cache
    fast, fast_seconds = _timed(lambda: run_once(lambda: template.solve_batch(points)))
    reference, reference_seconds = _timed(
        lambda: [
            TreeModel(Protocol.SS_RT, point_params, chain, point_hops).solve()
            for point_params, point_hops in points
        ]
    )
    for fast_solution, reference_solution in zip(fast, reference):
        for state, probability in reference_solution.stationary.items():
            assert fast_solution.stationary[state] == pytest.approx(
                probability, abs=1e-9
            )
    # The reference rebuilds the O(n^2) rate dict and the CSC structure
    # per point; the template refreshes .data only.  Record both times
    # and assert the template at least keeps pace (the hard >= claims
    # live on quieter single-hop arithmetic above).
    if os.environ.get("CI"):
        pytest.skip(
            f"CI runner: recorded template {fast_seconds:.3f}s vs "
            f"per-point {reference_seconds:.3f}s without asserting"
        )
    assert fast_seconds < reference_seconds, (
        f"template sparse path ({fast_seconds:.3f}s) slower than the "
        f"dict-built reference ({reference_seconds:.3f}s) at 128 hops"
    )
