"""Tests for the declarative scenario spec layer."""

from __future__ import annotations

import pytest

from repro.core.parameters import MultiHopParameters, kazaa_defaults
from repro.core.protocols import Protocol
from repro.experiments import scenario, scenario_ids, scenarios
from repro.experiments.spec import (
    FAST,
    FIDELITIES,
    FULL,
    SMOKE,
    Axis,
    FidelityProfile,
    PanelSpec,
    ScenarioError,
    ScenarioSpec,
    SeriesPlan,
    apply_overrides,
    base_parameters,
    model_family,
    parse_overrides,
    parse_protocol,
    parse_protocols,
    register_scenario,
)


def minimal_panel() -> PanelSpec:
    return PanelSpec(
        name="p",
        x_label="x",
        y_label="y",
        plans=(
            SeriesPlan(
                "sweep", axis="a", binder="loss_rate", metric="inconsistency_ratio"
            ),
        ),
    )


def minimal_spec(**changes) -> ScenarioSpec:
    fields = dict(
        scenario_id="tmp",
        title="t",
        artifact="none",
        family="singlehop",
        preset="kazaa",
        protocols=tuple(Protocol),
        axes=(Axis("a", "linear", low=0.0, high=0.1, points=5),),
        panels=(minimal_panel(),),
    )
    fields.update(changes)
    return ScenarioSpec(**fields)


class TestRegistry:
    def test_all_canned_scenarios_registered(self):
        assert set(scenario_ids()) == {
            "table1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig17",
            "fig18",
            "fig19",
            "scaling",
            "tree_fanout",
            "tree_depth",
            "tree_deep",
            "tree_wide",
            "burst_loss",
            "burst_loss_hops",
            "link_flap",
            "time_to_consistency",
            "recovery_flap",
            "recovery_crash",
        }

    def test_registry_holds_frozen_specs(self):
        for spec in scenarios().values():
            assert isinstance(spec, ScenarioSpec)
            with pytest.raises(AttributeError):
                spec.title = "mutated"

    def test_every_scenario_names_all_standard_fidelities(self):
        for spec in scenarios().values():
            for name in FIDELITIES:
                assert spec.fidelity(name).name == name

    def test_scenario_lookup(self):
        assert scenario("fig4").scenario_id == "fig4"
        with pytest.raises(KeyError):
            scenario("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            register_scenario(scenario("fig4"))

    def test_artifact_tags_present(self):
        assert scenario("fig4").artifact == "Fig. 4"
        assert scenario("table1").artifact == "Table I"
        assert scenario("scaling").artifact == "beyond the paper"


class TestModelFamily:
    @pytest.mark.parametrize(
        "scenario_id, family",
        [
            ("burst_loss", "gilbert-singlehop"),
            ("burst_loss_hops", "gilbert-multihop"),
            ("fig4", "singlehop"),
            ("fig17", "multihop"),
            ("scaling", "heterogeneous"),
            ("tree_fanout", "tree"),
        ],
    )
    def test_scenario_family_tag(self, scenario_id, family):
        assert model_family(scenario(scenario_id)) == family


class TestAxis:
    def test_geometric_resolution_with_point_override(self):
        axis = Axis("a", "geometric", low=1.0, high=100.0, points=11)
        full = axis.resolve(FidelityProfile(FULL))
        fast = axis.resolve(FidelityProfile(FAST, axis_points={"a": 3}))
        assert len(full) == 11
        assert fast == (1.0, 10.0, 100.0)

    def test_value_override_beats_point_override(self):
        axis = Axis("a", "geometric", low=1.0, high=100.0, points=11)
        profile = FidelityProfile(SMOKE, axis_points={"a": 5}, axis_values={"a": (7.0,)})
        assert axis.resolve(profile) == (7.0,)

    def test_explicit_axis(self):
        axis = Axis("a", "explicit", values=(1.0, 2.0, 3.0))
        assert axis.resolve(FidelityProfile(FULL)) == (1.0, 2.0, 3.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="kind"):
            Axis("a", "sinusoidal", low=0.0, high=1.0, points=4)

    def test_explicit_axis_needs_values(self):
        with pytest.raises(ScenarioError, match="values"):
            Axis("a", "explicit")

    def test_generated_axis_needs_points(self):
        with pytest.raises(ScenarioError, match="points"):
            Axis("a", "linear", low=0.0, high=1.0, points=1)


class TestSpecValidation:
    def test_unknown_axis_reference_rejected(self):
        panel = PanelSpec(
            name="p",
            x_label="x",
            y_label="y",
            plans=(
                SeriesPlan(
                    "sweep", axis="zzz", binder="loss_rate", metric="inconsistency_ratio"
                ),
            ),
        )
        with pytest.raises(ScenarioError, match="unknown axis"):
            minimal_spec(panels=(panel,))

    def test_missing_full_fidelity_rejected(self):
        with pytest.raises(ScenarioError, match="full"):
            minimal_spec(fidelities=(FidelityProfile(FAST),))

    def test_duplicate_fidelity_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            minimal_spec(
                fidelities=(FidelityProfile(FULL), FidelityProfile(FULL))
            )

    def test_fidelity_with_typoed_axis_rejected(self):
        # A typo'd axis name in a profile would otherwise be silently
        # ignored, leaving the profile running at full resolution.
        with pytest.raises(ScenarioError, match="unknown axis"):
            minimal_spec(
                fidelities=(
                    FidelityProfile(FULL),
                    FidelityProfile(FAST, axis_points={"ax_typo": 3}),
                )
            )
        with pytest.raises(ScenarioError, match="unknown axis"):
            minimal_spec(
                fidelities=(
                    FidelityProfile(FULL, axis_values={"ax_typo": (1.0,)}),
                )
            )

    def test_sim_plan_requires_sim_config(self):
        panel = PanelSpec(
            name="p",
            x_label="x",
            y_label="y",
            plans=(
                SeriesPlan("sim", axis="a", binder="loss_rate", metric="inconsistency"),
            ),
        )
        with pytest.raises(ScenarioError, match="SimPlan"):
            minimal_spec(panels=(panel,))

    def test_unknown_fidelity_lookup(self):
        with pytest.raises(ScenarioError, match="unknown fidelity"):
            minimal_spec().fidelity("turbo")

    def test_default_fidelities_generated(self):
        assert minimal_spec().fidelity_names() == FIDELITIES

    def test_unknown_family_rejected(self):
        with pytest.raises(ScenarioError, match="family"):
            minimal_spec(family="quantum")

    def test_unknown_plan_kind_rejected(self):
        with pytest.raises(ScenarioError, match="kind"):
            SeriesPlan("teleport")


class TestOverrides:
    def test_apply_known_field(self):
        params = apply_overrides(kazaa_defaults(), {"loss_rate": 0.1})
        assert params.loss_rate == 0.1

    def test_unknown_field_rejected_with_listing(self):
        with pytest.raises(ScenarioError, match="valid:"):
            apply_overrides(kazaa_defaults(), {"bogus": 1.0})

    def test_int_field_coerced(self):
        params = apply_overrides(MultiHopParameters(), {"hops": 30.0})
        assert params.hops == 30
        assert isinstance(params.hops, int)

    def test_range_validation_still_applies(self):
        with pytest.raises(ScenarioError, match="loss_rate"):
            apply_overrides(kazaa_defaults(), {"loss_rate": 1.5})

    def test_parse_overrides(self):
        assert parse_overrides(["loss_rate=0.05", "delay=0.1"]) == {
            "loss_rate": 0.05,
            "delay": 0.1,
        }

    def test_parse_overrides_malformed(self):
        with pytest.raises(ScenarioError, match="key=value"):
            parse_overrides(["loss_rate"])
        with pytest.raises(ScenarioError, match="not a number"):
            parse_overrides(["loss_rate=abc"])

    def test_base_parameters_spec_overrides_then_user(self):
        spec = scenario("fig8")
        assert base_parameters(spec).refresh_interval == 5.0
        assert base_parameters(spec, {"refresh_interval": 9.0}).refresh_interval == 9.0

    def test_transient_faults_must_hit_the_last_hop(self):
        flap, crash = scenario("recovery_flap"), scenario("recovery_crash")
        assert base_parameters(flap).hops == base_parameters(flap, {"hops": 4}).hops == 4
        assert base_parameters(crash, {"refresh_interval": 9.0}).hops == 4
        with pytest.raises(ScenarioError, match=r"recovery_flap faults link 4, but hops=3 "):
            base_parameters(flap, {"hops": 3})
        with pytest.raises(ScenarioError, match=r"recovery_crash faults node 4, but hops=5 "):
            base_parameters(crash, {"hops": 5})
        # A cold start has no fault to move.
        assert base_parameters(scenario("time_to_consistency"), {"hops": 2}).hops == 2


class TestProtocolParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("ss", Protocol.SS),
            ("SS+ER", Protocol.SS_ER),
            ("ss_er", Protocol.SS_ER),
            ("ss-rtr", Protocol.SS_RTR),
            (" hs ", Protocol.HS),
        ],
    )
    def test_parse_protocol(self, text, expected):
        assert parse_protocol(text) is expected

    def test_parse_protocol_unknown(self):
        with pytest.raises(ScenarioError, match="unknown protocol"):
            parse_protocol("tcp")

    def test_parse_protocols_csv(self):
        assert parse_protocols("ss,hs") == (Protocol.SS, Protocol.HS)

    def test_parse_protocols_empty(self):
        with pytest.raises(ScenarioError, match="empty"):
            parse_protocols("")
