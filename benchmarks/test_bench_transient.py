"""Benchmark: the uniformization kernel and the transient scenarios.

The transient stack is a different workload from the stationary
sweeps: Poisson power sums over a piecewise-constant generator plus
grid-sampled simulation replications.  One bench times the kernel
alone on a call shaped like perfbench chain_sweep's; two regenerate
scenarios at fast fidelity.  The nightly bench job records this file
separately as ``BENCH_transient.json`` so the uniformization path has
its own performance trajectory, and the bench-smoke job runs each body
once on every change.
"""

from __future__ import annotations

import numpy as np

from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.core.uniformization import uniformized_transient
from repro.experiments import run_scenario
from repro.transient.families import ChainTransientModel


def test_bench_uniformized_transient_3hop_link_down(benchmark):
    """A 3-hop SS chain with link 3 down, from the nominal chain's
    stationary vector, on 13 times in [0.5, 90] s."""
    model = ChainTransientModel(Protocol.SS, reservation_defaults().replace(hops=3))
    chain = model.degraded_chain((3,))
    initial = model.initial_vector("stationary")
    times = tuple(float(t) for t in np.linspace(0.5, 90.0, 13))
    result = benchmark(uniformized_transient, chain, initial, times)
    assert result.probabilities.shape == (13, len(chain.states))
    assert np.max(np.abs(result.probabilities.sum(axis=1) - 1.0)) <= 1e-12


def test_bench_time_to_consistency(run_once):
    result = run_once(run_scenario, "time_to_consistency", "fast")
    panel = result.panel("a: consistency probability over time")
    model = panel.series_by_label("SS")
    sim = panel.series_by_label("SS sim")
    assert sim.y_err is not None
    assert all(0.0 <= y <= 1.0 for y in model.y)
    # Cold start: the install wave must actually arrive.
    assert model.y[0] < model.y[-1]
    assert model.y[-1] > 0.9


def test_bench_recovery_crash(run_once):
    result = run_once(run_scenario, "recovery_crash", "fast")
    panel = result.panel("a: consistency through a silent crash (t = 5 .. 35)")
    model = panel.series_by_label("SS")
    by_time = dict(zip(model.x, model.y))
    # Whole-chain consistency is exactly zero while the node is down
    # and recovers after the restart at t = 35.
    assert by_time[6.0] < 1e-9
    assert by_time[80.0] > 0.5
