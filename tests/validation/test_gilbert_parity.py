"""The Gilbert-Elliott families in validation plans."""

import pytest

from repro.core.protocols import Protocol
from repro.validation import validate_scenario
from repro.validation.plan import build_plan

MULTIHOP = Protocol.multihop_family()


class TestPlanWiring:
    def test_singlehop_burst_plan(self):
        plan = build_plan("burst_loss", "smoke")
        assert plan.parity_families == ("singlehop", "gilbert-singlehop")
        assert plan.hop_counts == ()
        assert plan.protocols == tuple(Protocol)
        assert plan.has_simulation

    def test_multihop_burst_plan(self):
        plan = build_plan("burst_loss_hops", "smoke")
        assert plan.parity_families == ("multihop", "heterogeneous", "gilbert-multihop")
        assert plan.hop_counts
        assert plan.protocols == MULTIHOP
        assert plan.has_simulation

    def test_link_flap_plan_is_simulation_only(self):
        plan = build_plan("link_flap", "smoke")
        assert plan.parity_families == ("multihop", "heterogeneous")
        assert plan.protocols == MULTIHOP
        assert plan.has_simulation

    @pytest.mark.parametrize(
        "scenario_id", ["burst_loss", "burst_loss_hops", "link_flap"]
    )
    def test_validate_scenario_passes(self, scenario_id):
        report = validate_scenario(scenario_id, "smoke")
        assert report.passed, report.to_text()

    @pytest.mark.parametrize(
        "scenario_id,tag",
        [("burst_loss", "gilbert-singlehop"), ("burst_loss_hops", "gilbert-multihop")],
    )
    def test_burst_reports_carry_the_gilbert_rows(self, scenario_id, tag):
        names = {check.name for check in validate_scenario(scenario_id, "smoke").checks}
        for protocol in build_plan(scenario_id, "smoke").protocols:
            for relation in ("template==referee", "degenerate==iid", "dense~sparse"):
                assert f"{tag} {protocol.value}: {relation}" in names

    def test_burst_scenarios_check_sim_against_model(self):
        report = validate_scenario("burst_loss_hops", "smoke")
        kinds = {check.kind for check in report.checks}
        assert "sim_model" in kinds

    def test_link_flap_has_no_model_twin(self):
        report = validate_scenario("link_flap", "smoke")
        kinds = {check.kind for check in report.checks}
        assert "sim_model" not in kinds
