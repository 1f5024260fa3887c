"""Benchmark: regenerate every paper figure and Table I end to end.

One row per scenario: ``run_scenario(id, fidelity)`` under the
benchmark clock, then the row's shape check on the result, so the
suite doubles as a paper-figure smoke test.  The simulation-backed
Fig. 11/12 run exactly one round.  ``scaling`` (heterogeneous chains up
to 128 hops, beyond the paper) rides along as the long-chain row.
"""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.experiments import run_scenario


def check_fig4(result):
    ss = result.panel("a: inconsistency ratio").series_by_label("SS")
    # The headline shape: inconsistency falls as sessions lengthen.
    assert ss.y[0] > ss.y[-1]
    assert result.panel("b: signaling message rate").series_by_label("HS").y[-1] < 0.2


def check_fig5(result):
    for series in result.panel("a: vs loss rate").series:
        assert series.y[-1] > series.y[0]  # loss hurts everyone


def check_fig6(result):
    ss = result.panel("b: signaling message rate").series_by_label("SS")
    assert ss.y[0] > ss.y[-1]  # long timers are cheap


def check_fig7(result):
    ss = result.panel("integrated cost").series_by_label("SS")
    # The sensitive interior optimum the paper highlights.
    assert min(ss.y) < ss.y[0]
    assert min(ss.y) < ss.y[-1]


def check_fig8(result):
    ss = result.panel("a: vs state-timeout timer").series_by_label("SS")
    assert ss.y[0] > 10 * min(ss.y)  # T < R collapses soft state


def check_fig9(result):
    assert len(result.panel("tradeoff").series_by_label("HS").x) == 1  # HS is a point


def check_fig10(result):
    assert len(result.panels) == 2
    for panel in result.panels:
        assert len(panel.series) == 5


def check_fig11(result):
    panel = result.panel("a: inconsistency ratio")
    sim = panel.series_by_label("SS sim")
    model = panel.series_by_label("SS")
    assert sim.y_err is not None
    # Simulation tracks the model across the sweep.
    for m, s in zip(model.y, sim.y):
        assert abs(s - m) < max(0.4 * m, 1e-3)


def check_fig12(result):
    panel = result.panel("b: signaling message rate")
    sim = panel.series_by_label("SS sim")
    model = panel.series_by_label("SS")
    for m, s in zip(model.y, sim.y):
        assert abs(s - m) < 0.35 * m


def check_fig17(result):
    ss = result.panel("per-hop inconsistency").series_by_label("SS")
    assert ss.y[-1] > ss.y[0]  # inconsistency grows along the path


def check_fig18(result):
    rate_panel = result.panel("b: signaling message rate")
    assert (
        rate_panel.series_by_label("HS").y[-1]
        < rate_panel.series_by_label("SS").y[-1]
    )


def check_fig19(result):
    ss = result.panel("a: inconsistency ratio").series_by_label("SS")
    best = min(range(len(ss.y)), key=lambda i: ss.y[i])
    assert ss.y[-1] > ss.y[best]  # the multi-hop vee shape


def check_scaling(result):
    for series in result.panel("end-to-end inconsistency").series:
        assert series.y[-1] > series.y[0]  # longer paths are less consistent


def check_table1(result):
    panel = result.panel("transition rates")
    assert panel.labels() == tuple(p.value for p in Protocol)
    # Every protocol column evaluates all seven Table I rows.
    for series in panel.series:
        assert len(series.y) == 7


#: Scenario id -> (fidelity, shape check).
SCENARIOS = {
    "fig4": ("fast", check_fig4),
    "fig5": ("fast", check_fig5),
    "fig6": ("fast", check_fig6),
    "fig7": ("fast", check_fig7),
    "fig8": ("fast", check_fig8),
    "fig9": ("fast", check_fig9),
    "fig10": ("fast", check_fig10),
    "fig11": ("fast", check_fig11),
    "fig12": ("fast", check_fig12),
    "fig17": ("fast", check_fig17),
    "fig18": ("fast", check_fig18),
    "fig19": ("fast", check_fig19),
    "scaling": ("fast", check_scaling),
    "table1": ("full", check_table1),
}

#: Replicated discrete-event simulations: one benchmark round each.
SIMULATED = ("fig11", "fig12")


@pytest.mark.parametrize("scenario_id", list(SCENARIOS))
def test_bench_scenario(benchmark, run_once, scenario_id):
    fidelity, check = SCENARIOS[scenario_id]
    run = run_once if scenario_id in SIMULATED else benchmark
    check(run(run_scenario, scenario_id, fidelity))
