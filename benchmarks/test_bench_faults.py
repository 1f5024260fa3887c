"""Benchmark: regenerate the fault-injection scenarios (fast fidelity).

``burst_loss`` is the canonical fault workload: product-chain solves
(the Gilbert-Elliott templates) plus replicated simulations with the
stateful channel modulator.  The nightly bench job records this file
separately as ``BENCH_faults.json`` so the fault stack has its own
performance trajectory.
"""

from __future__ import annotations

from repro.experiments import run_scenario


def test_bench_burst_loss(run_once):
    result = run_once(run_scenario, "burst_loss", "fast")
    panel = result.panel("a: inconsistency ratio")
    model = panel.series_by_label("SS")
    sim = panel.series_by_label("SS sim")
    assert sim.y_err is not None
    # The i.i.d. anchor (burstiness 0) agrees; the bursty tail stays
    # within the equivalence band used by the validation plan.
    for m, s in zip(model.y, sim.y):
        assert abs(s - m) < max(0.4 * m, 1e-2)
    # Matched average loss: burstiness must not run away with the metric.
    assert max(model.y) < 10 * max(min(model.y), 1e-6)


def test_bench_link_flap(run_once):
    result = run_once(run_scenario, "link_flap", "fast")
    panel = result.panel("a: inconsistency ratio")
    for series in panel.series:
        assert all(y >= 0 for y in series.y)
