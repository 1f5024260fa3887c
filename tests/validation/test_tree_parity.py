"""The tree family in validation plans."""

import pytest

from repro.core.protocols import Protocol
from repro.validation import validate_scenario
from repro.validation.plan import build_plan

MULTIHOP = Protocol.multihop_family()


class TestPlanWiring:
    def test_tree_family_plan(self):
        plan = build_plan("tree_fanout", "smoke")
        assert plan.parity_families == ("tree",)
        assert plan.hop_counts == ()
        assert plan.protocols == MULTIHOP
        assert not plan.has_simulation

    @pytest.mark.parametrize(
        "scenario_id", ["tree_fanout", "tree_depth", "tree_deep", "tree_wide"]
    )
    def test_validate_scenario_passes(self, scenario_id):
        report = validate_scenario(scenario_id, "smoke")
        assert report.passed, report.to_text()
        kinds = {check.kind for check in report.checks}
        assert kinds == {"artifact", "invariant", "parity"}

    def test_report_counts_tree_backends(self):
        report = validate_scenario("tree_fanout", "smoke")
        assert report.backends == (
            "dense",
            "template",
            "batched",
            "sparse",
            "structured",
            "lumped",
            "iterative",
        )
        assert report.hop_counts == ()

    def test_every_tree_relation_present(self):
        report = validate_scenario("tree_fanout", "smoke")
        names = [check.name for check in report.checks]
        for protocol in MULTIHOP:
            for relation in (
                "direct==referee",
                "lumped==referee",
                "iterative==referee",
                "lumped~direct",
                "iterative~direct",
                "dense~sparse",
            ):
                assert f"tree {protocol.value}: {relation}" in names
            assert f"tree {protocol.value}: unary==chain" not in names

    def test_fast_adds_shapes_and_the_scale_cross_check(self):
        report = validate_scenario("tree_fanout", "fast")
        assert report.passed, report.to_text()
        names = [check.name for check in report.checks]
        assert "tree SS: lumped~iterative" in names
        labels = {p.label.split()[0] for c in report.checks if c.kind == "parity" for p in c.points}
        assert "broom2x3" in labels
