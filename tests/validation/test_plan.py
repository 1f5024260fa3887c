"""Tests for validation-plan derivation and execution."""

from __future__ import annotations

import dataclasses

import pytest

import repro.api as api
from repro.core.protocols import Protocol
from repro.experiments.runner import ExperimentResult, Panel, Series
from repro.experiments.spec import ScenarioError, scenario
from repro.validation import (
    ValidationReport,
    build_plan,
    execute_plan,
    validate_scenario,
)
from repro.validation.plan import _sim_model_checks


class TestBuildPlan:
    def test_singlehop_plan(self):
        plan = build_plan("fig4", "smoke")
        assert plan.parity_families == ("singlehop",)
        assert plan.hop_counts == ()
        assert not plan.has_simulation
        assert len(plan.protocols) == 5

    def test_sim_scenario_plan(self):
        plan = build_plan("fig11", "smoke")
        assert plan.has_simulation
        assert len(plan.sim_panels) == 2

    def test_multihop_plan_has_two_hop_counts(self):
        plan = build_plan("fig17", "smoke")
        assert plan.parity_families == ("multihop", "heterogeneous")
        assert len(plan.hop_counts) == 2
        # Protocols narrowed to the multi-hop family.
        assert all(p in plan.spec.protocols for p in plan.protocols)

    def test_heterogeneous_plan(self):
        plan = build_plan("scaling", "smoke")
        assert plan.parity_families == ("multihop", "heterogeneous")

    def test_plan_families_are_family_tags(self):
        from repro.experiments import scenario_ids
        from repro.runtime.solvers import FAMILIES

        for scenario_id in scenario_ids():
            assert set(build_plan(scenario_id, "smoke").parity_families) <= set(FAMILIES)

    def test_hop_counts_clamped_below_sparse_crossover(self):
        # The plan's hop counts stay in the dense regime, so the
        # dense~sparse row covers them; the crossover chain is added
        # by the parity matrix itself.
        from repro.core.markov import SPARSE_STATE_THRESHOLD
        from repro.experiments.spec import (
            Axis,
            PanelSpec,
            ScenarioSpec,
            SeriesPlan,
        )
        from repro.core.protocols import Protocol

        spec = ScenarioSpec(
            scenario_id="huge-chain",
            title="t",
            artifact="test",
            family="multihop",
            preset="reservation",
            protocols=Protocol.multihop_family(),
            base_overrides=(("hops", 128),),
            axes=(Axis("hops", "explicit", values=(2.0,)),),
            panels=(
                PanelSpec(
                    "p", "x", "y",
                    (SeriesPlan("sweep", axis="hops", binder="hops",
                                metric="inconsistency_ratio"),),
                ),
            ),
        )
        plan = build_plan(spec, "smoke")
        dense_limit = (SPARSE_STATE_THRESHOLD - 2) // 2 - 1
        assert all(h <= dense_limit for h in plan.hop_counts)
        assert len(plan.hop_counts) == 2

    def test_parity_slices_memoized_across_reports(self):
        # Nine single-hop scenarios share the Kazaa base preset; the
        # parity grid must be solved once, not per scenario.
        from repro.validation.plan import _cached_parity_slice

        _cached_parity_slice.cache_clear()
        execute_plan(build_plan("fig4", "smoke"))
        after_first = _cached_parity_slice.cache_info()
        execute_plan(build_plan("fig5", "smoke"))
        after_second = _cached_parity_slice.cache_info()
        assert after_first.misses == 1
        assert after_second.misses == 1
        assert after_second.hits == after_first.hits + 1

    def test_unknown_scenario_raises_keyerror(self):
        with pytest.raises(KeyError):
            build_plan("fig99", "smoke")

    def test_unknown_fidelity_raises_scenario_error(self):
        with pytest.raises(ScenarioError):
            build_plan("fig4", "warp")


class TestExecutePlan:
    @pytest.fixture(scope="class")
    def fig4_report(self):
        return execute_plan(build_plan("fig4", "smoke"))

    def test_report_passes_and_covers(self, fig4_report):
        assert fig4_report.passed
        coverage = fig4_report.coverage()
        assert coverage.checks_failed == 0
        assert coverage.points > 0
        assert fig4_report.backends == (
            "dense",
            "template",
            "batched",
            "sparse",
            "structured",
            "lumped",
            "iterative",
        )

    def test_report_carries_check_kinds(self, fig4_report):
        kinds = {check.kind for check in fig4_report.checks}
        assert {"artifact", "invariant", "parity"} <= kinds

    def test_report_round_trips_as_json(self, fig4_report):
        rebuilt = ValidationReport.from_json(fig4_report.to_json())
        assert rebuilt == fig4_report

    def test_sim_scenario_produces_equivalence_checks(self):
        report = validate_scenario("fig11", "smoke")
        assert report.passed
        sim_checks = [c for c in report.checks if c.kind == "sim_model"]
        assert len(sim_checks) == 2  # one per panel/metric
        for check in sim_checks:
            assert check.points
            # One simulated point per protocol at smoke fidelity.
            assert len(check.points) == 5


def _hand_built(scenario_id, model_y, sim_y, sim_grid=None, model_suffix=""):
    """An SS-only plan and a result whose sim panels hold given series.

    ``model_suffix`` is set on every model plan and its series.
    """
    spec = scenario(scenario_id)
    if model_suffix:
        spec = dataclasses.replace(
            spec,
            panels=tuple(
                dataclasses.replace(
                    panel,
                    plans=tuple(
                        plan
                        if plan.kind == "sim"
                        else dataclasses.replace(plan, label_suffix=model_suffix)
                        for plan in panel.plans
                    ),
                )
                for panel in spec.panels
            ),
        )
    plan = dataclasses.replace(build_plan(spec, "smoke"), protocols=(Protocol.SS,))
    grid = tuple(float(x) for x in range(1, len(model_y) + 1))
    sim_grid = grid if sim_grid is None else sim_grid
    panels = tuple(
        Panel(
            panel.name,
            "x",
            "y",
            (
                Series(f"SS{model_suffix}", grid, model_y),
                Series("SS sim", sim_grid, sim_y, (0.0,) * len(sim_y)),
            ),
            shared_x=False,
        )
        for panel in plan.spec.panels
    )
    return plan, ExperimentResult(scenario_id, "hand-built", panels)


class TestSimModelChecks:
    def test_stationary_point_outside_its_band_fails(self):
        plan, result = _hand_built("fig11", (0.1, 0.1, 0.1), (0.1, 0.1, 0.5))
        checks = _sim_model_checks(plan, result)
        assert [c.name for c in checks] == [
            "sim==model: a: inconsistency ratio [inconsistency]",
            "sim==model: b: signaling message rate [message_rate]",
        ]
        for check in checks:
            assert not check.passed
            assert [p.passed for p in check.points] == [True, True, False]
            assert [p.label for p in check.points] == ["SS @ x=1", "SS @ x=2", "SS @ x=3"]
        assert checks[0].detail == "|sim-model| <= max(2.5*CI, 40%, 0.001)"

    def test_transient_curve_passes_within_its_violation_budget(self):
        plan, result = _hand_built(
            "time_to_consistency", (0.5,) * 5, (0.5, 0.5, 0.5, 0.5, 0.0)
        )
        (check,) = _sim_model_checks(plan, result)
        assert check.name == "sim==model curve: a: consistency probability over time [consistency]"
        assert check.passed
        assert sum(not p.passed for p in check.points) == 1
        assert check.points[0].label == "SS @ t=1"
        assert check.detail == (
            "per point |sim-model| <= max(2.5*CI, 35%, 0.15); curve passes "
            "with <= 25% of grid points violating"
        )

    def test_sim_series_pairs_with_a_suffixed_model_plan(self):
        plan, result = _hand_built(
            "fig11", (0.1, 0.1), (0.1, 0.1), model_suffix=" model"
        )
        for check in _sim_model_checks(plan, result):
            assert check.passed
            assert [p.label for p in check.points] == ["SS @ x=1", "SS @ x=2"]

    @pytest.mark.parametrize(
        "scenario_id, label",
        [
            ("fig11", "SS: sim x-grid differs from model"),
            ("time_to_consistency", "SS: sim time grid differs from model"),
        ],
    )
    def test_differing_grid_fails(self, scenario_id, label):
        plan, result = _hand_built(
            scenario_id, (0.5, 0.5, 0.5), (0.5, 0.5), sim_grid=(1.0, 2.0)
        )
        for check in _sim_model_checks(plan, result):
            assert not check.passed
            assert [p.label for p in check.points] == [label]


class TestApiSurface:
    def test_api_validate_scenario(self):
        report = api.validate_scenario("table1", "smoke")
        assert isinstance(report, ValidationReport)
        assert report.scenario_id == "table1"
        assert report.passed

    def test_spec_instance_accepted(self):
        report = validate_scenario(scenario("fig4"), "smoke")
        assert report.scenario_id == "fig4"
