"""Benchmark: regenerate the transient scenarios (fast fidelity).

The transient stack is a different workload from the stationary
sweeps: Poisson power sums over a piecewise-constant generator plus
grid-sampled simulation replications.  The nightly bench job records
this file separately as ``BENCH_transient.json`` so the uniformization
path has its own performance trajectory.
"""

from __future__ import annotations

from repro.experiments import run_scenario


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
