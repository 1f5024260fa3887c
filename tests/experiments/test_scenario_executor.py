"""Tests for the generic scenario executor."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.protocols import Protocol
from repro.experiments import run_scenario, scenario
from repro.experiments.spec import (
    SMOKE,
    Axis,
    PanelSpec,
    ScenarioError,
    ScenarioSpec,
    SeriesPlan,
)


class TestFidelity:
    def test_smoke_thins_sweeps(self):
        fast = run_scenario("fig4", "fast")
        smoke = run_scenario("fig4", SMOKE)
        assert len(smoke.panels[0].series[0].x) < len(fast.panels[0].series[0].x)

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fidelity"):
            run_scenario("fig4", "turbo")

    def test_every_scenario_runs_at_smoke(self):
        # The smoke profile must stay runnable for every registered
        # scenario — it backs the CI console-script smoke job.
        from repro.experiments import scenario_ids

        for scenario_id in scenario_ids():
            result = run_scenario(scenario_id, SMOKE)
            assert result.panels, scenario_id


class TestOverrides:
    def test_override_changes_values(self):
        base = run_scenario("fig4", SMOKE)
        lossy = run_scenario("fig4", SMOKE, overrides={"loss_rate": 0.2})
        assert base.panels[0].series[0].y != lossy.panels[0].series[0].y

    def test_override_recorded_in_provenance(self):
        result = run_scenario("fig4", SMOKE, overrides={"loss_rate": 0.05})
        assert result.provenance.overrides == (("loss_rate", 0.05),)
        assert result.provenance.fidelity == SMOKE
        assert result.provenance.scenario_id == "fig4"
        assert result.provenance.package_version

    def test_unknown_override_rejected(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            run_scenario("fig4", SMOKE, overrides={"bogus": 1.0})

    def test_hops_override_reshapes_hop_profile(self):
        result = run_scenario("fig17", "full", overrides={"hops": 5})
        assert len(result.panels[0].series[0].x) == 5


class TestProtocolSelection:
    def test_subset_selected_in_spec_order(self):
        result = run_scenario("fig4", SMOKE, protocols="hs,ss")
        labels = result.panels[0].labels()
        assert labels == (Protocol.SS.value, Protocol.HS.value)

    def test_selection_recorded_in_provenance(self):
        result = run_scenario("fig4", SMOKE, protocols="ss,hs")
        assert result.provenance.protocols == ("SS", "HS")

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(ScenarioError, match="does not model"):
            run_scenario("fig17", "full", protocols="ss+er")

    def test_pinned_plan_intersection(self):
        # Fig. 9 pins its parametric plan to the soft-state family and
        # its point plan to HS; selecting only HS leaves the point.
        result = run_scenario("fig9", SMOKE, protocols="hs")
        assert result.panels[0].labels() == (Protocol.HS.value,)
        assert len(result.panels[0].series[0].x) == 1

    def test_unknown_scenario_raises_keyerror(self):
        with pytest.raises(KeyError):
            run_scenario("fig99", "fast")


class TestSimulationSeed:
    def test_seed_override_reseeds_simulations(self):
        # Fig. 12's default simulation seed is 12: another seed draws
        # different simulations, the default one reproduces them.
        default = run_scenario("fig12", SMOKE)
        reseeded = run_scenario("fig12", SMOKE, seed=99)
        sim_default = default.panels[0].series_by_label("SS sim")
        sim_reseeded = reseeded.panels[0].series_by_label("SS sim")
        assert sim_default.y != sim_reseeded.y
        assert run_scenario("fig12", SMOKE, seed=12) == default


class TestVariantScenario:
    def test_acceptance_variant_runs_end_to_end(self):
        # The ISSUE's acceptance example: a fig4 variant with a lossier
        # channel and a two-protocol set, as JSON with provenance.
        result = run_scenario(
            scenario("fig4"),
            "smoke",
            overrides={"loss_rate": 0.05},
            protocols="ss,hs",
        )
        restored = type(result).from_json(result.to_json())
        assert restored == result
        assert restored.provenance.overrides == (("loss_rate", 0.05),)
        assert restored.provenance.protocols == ("SS", "HS")


#: Two plans of one kind that share a panel, told apart by their suffix.
_SUFFIXED_PLANS = {
    "sweep": (
        dict(axis="loss", binder="loss_rate", metric="inconsistency_ratio"),
        dict(axis="loss", binder="loss_rate", metric="normalized_message_rate"),
    ),
    "parametric": (
        dict(
            axis="loss",
            binder="loss_rate",
            x_metric="inconsistency_ratio",
            y_metric="normalized_message_rate",
        ),
    )
    * 2,
    "point": (dict(x_metric="inconsistency_ratio", y_metric="normalized_message_rate"),)
    * 2,
}


class TestLabelSuffix:
    @pytest.mark.parametrize("kind", sorted(_SUFFIXED_PLANS))
    def test_suffix_labels_every_plan_kind(self, kind):
        plans = tuple(
            SeriesPlan(kind, protocols=(Protocol.SS,), label_suffix=suffix, **fields)
            for suffix, fields in zip((" I", " M"), _SUFFIXED_PLANS[kind])
        )
        spec = ScenarioSpec(
            scenario_id=f"suffixed-{kind}",
            title="t",
            artifact="test",
            family="singlehop",
            preset="kazaa",
            protocols=(Protocol.SS, Protocol.HS),
            axes=(Axis("loss", "linear", low=0.0, high=0.1, points=3),),
            panels=(PanelSpec("p", "x", "y", plans, shared_x=False),),
        )
        result = run_scenario(spec, SMOKE)
        assert result.panels[0].labels() == ("SS I", "SS M")


class TestLinkFlapSweep:
    def test_sweep_plan_has_no_analytic_model(self):
        flap = scenario("link_flap")
        sweep = SeriesPlan(
            "sweep", axis="flap_rate", binder="link_flap_rate", metric="inconsistency_ratio"
        )
        spec = dataclasses.replace(
            flap, panels=(PanelSpec("p", "x", "y", (sweep,)),)
        )
        with pytest.raises(ScenarioError, match="no analytic model"):
            run_scenario(spec, SMOKE)
