"""The tree-topology scenarios: registry, executor wiring, CLI."""

import json

import pytest

from repro.core.multihop import Topology
from repro.core.parameters import reservation_defaults
from repro.cli import main
from repro.experiments import experiment_ids, run_scenario, scenario
from repro.experiments.spec import binder, metric


class TestRegistry:
    def test_tree_scenarios_registered(self):
        ids = experiment_ids()
        assert "tree_fanout" in ids
        assert "tree_depth" in ids
        assert "tree_deep" in ids
        assert "tree_wide" in ids

    def test_specs_are_tree_family(self):
        for scenario_id in ("tree_fanout", "tree_depth", "tree_deep", "tree_wide"):
            spec = scenario(scenario_id)
            assert spec.family == "tree"
            assert spec.preset == "reservation"
            assert spec.fidelity_names() == ("full", "fast", "smoke")


class TestBinders:
    def test_star_binder_binds_hops_to_edges(self):
        params, topology = binder("tree_star")(reservation_defaults(), 4.0)
        assert topology == Topology.star(4)
        assert params.hops == 4

    def test_broom_binder(self):
        params, topology = binder("tree_broom")(reservation_defaults(), 3.0)
        assert topology == Topology.broom(2, 3)
        assert params.hops == 5

    def test_binary_binder(self):
        _, topology = binder("tree_binary")(reservation_defaults(), 2.0)
        assert topology == Topology.kary(2, 2)

    def test_skewed_binder(self):
        _, topology = binder("tree_skewed")(reservation_defaults(), 3.0)
        assert topology == Topology.skewed(3)

    def test_ternary_binder(self):
        _, topology = binder("tree_ternary")(reservation_defaults(), 2.0)
        assert topology == Topology.kary(3, 2)

    def test_spine_binder_depth_semantics(self):
        for depth in (1, 2, 4):
            _, topology = binder("tree_spine")(reservation_defaults(), float(depth))
            assert topology.max_depth == depth

    def test_tree_metrics_registered(self):
        assert callable(metric("mean_leaf_inconsistency"))
        assert callable(metric("fanout_weighted_inconsistency"))


class TestExecution:
    def test_fanout_smoke_series_and_labels(self):
        result = run_scenario("tree_fanout", "smoke")
        panel = result.panel("a: any-leaf inconsistency")
        labels = [series.label for series in panel.series]
        assert "SS star" in labels
        assert "SS broom" in labels
        assert "HS star" in labels
        star = panel.series_by_label("SS star")
        assert star.x == (1.0, 2.0)
        # Fan-out widening hurts the any-leaf metric.
        assert star.y[1] > star.y[0]

    def test_depth_smoke_has_own_binary_axis(self):
        result = run_scenario("tree_depth", "smoke")
        panel = result.panel("a: any-leaf inconsistency")
        assert panel.series_by_label("SS skewed").x == (1.0, 2.0)
        # The binary axis is not thinned by the smoke profile; it is
        # already minimal.
        assert panel.series_by_label("SS binary").x == (1.0, 2.0)
        assert not panel.shared_x

    def test_depth_full_widens_only_deep_axes(self):
        result = run_scenario("tree_depth", "full")
        panel = result.panel("c: signaling message rate")
        assert panel.series_by_label("SS skewed").x == (1.0, 2.0, 3.0, 4.0)
        assert panel.series_by_label("SS binary").x == (1.0, 2.0)

    def test_unary_points_match_chain_scenario_values(self):
        # The fan-out-1 star is the 1-hop chain: cross-check the swept
        # value against a direct multihop solve.
        from repro.runtime import solve_multihop_batch
        from repro.core.protocols import Protocol

        result = run_scenario("tree_fanout", "smoke")
        series = result.panel("a: any-leaf inconsistency").series_by_label("SS star")
        chain_solution = solve_multihop_batch(
            [(Protocol.SS, reservation_defaults().replace(hops=1))]
        )[0]
        assert series.y[0] == chain_solution.inconsistency_ratio

    def test_protocol_narrowing(self):
        result = run_scenario("tree_fanout", "smoke", protocols="ss")
        for panel in result.panels:
            assert {series.label for series in panel.series} <= {
                "SS star",
                "SS broom",
            }

    def test_overrides_apply(self):
        base = run_scenario("tree_fanout", "smoke")
        lossy = run_scenario("tree_fanout", "smoke", overrides={"loss_rate": 0.1})
        panel = "a: any-leaf inconsistency"
        assert (
            lossy.panel(panel).series_by_label("SS star").y[1]
            > base.panel(panel).series_by_label("SS star").y[1]
        )

    def test_json_round_trip(self):
        from repro.experiments.runner import ExperimentResult

        result = run_scenario("tree_depth", "smoke")
        assert ExperimentResult.from_json(result.to_json()) == result

    def test_deep_smoke_stays_below_the_lumped_crossover(self):
        # Smoke must never hit the iterative backend: every swept
        # topology stays within direct or cheap-lumped territory.
        from repro.core.multihop import select_tree_backend

        result = run_scenario("tree_deep", "smoke")
        panel = result.panel("a: any-leaf inconsistency")
        assert panel.series_by_label("SS binary").x == (1.0, 2.0)
        assert panel.series_by_label("SS ternary").x == (1.0,)
        assert panel.series_by_label("SS skewed").x == (5.0, 6.0)
        for depth in (5, 6):
            assert select_tree_backend(Topology.skewed(depth)) == "direct"

    def test_deep_fast_crosses_the_old_wall_exactly(self):
        # Fast sweeps binary depth 3 (15129 raw states) through the
        # lumped backend: values must be finite, monotone in depth, and
        # computed without touching the iterative path.
        from repro.core.multihop import select_tree_backend

        assert select_tree_backend(Topology.kary(2, 3)) == "lumped"
        result = run_scenario("tree_deep", "fast")
        series = result.panel("a: any-leaf inconsistency").series_by_label(
            "SS binary"
        )
        assert series.x == (1.0, 2.0, 3.0)
        assert series.y[0] < series.y[1] < series.y[2]

    def test_wide_smoke_routes_lumped(self):
        from repro.core.multihop import select_tree_backend

        assert select_tree_backend(Topology.star(8)) == "lumped"
        result = run_scenario("tree_wide", "smoke")
        panel = result.panel("c: signaling message rate")
        assert panel.series_by_label("SS star").x == (8.0,)
        assert panel.series_by_label("SS broom").x == (8.0,)

    def test_wide_fanout_widening_hurts_any_leaf(self):
        result = run_scenario("tree_wide", "fast")
        series = result.panel("a: any-leaf inconsistency").series_by_label(
            "SS star"
        )
        assert series.x == (8.0, 32.0)
        assert series.y[1] > series.y[0]


class TestCli:
    def test_run_tree_fanout_smoke_json(self, capsys):
        exit_code = main(
            ["run", "tree_fanout", "--fidelity", "smoke", "--format", "json"]
        )
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["experiment_id"] == "tree_fanout"
        assert document["provenance"]["fidelity"] == "smoke"

    def test_run_tree_depth_smoke_text(self, capsys):
        assert main(["run", "tree_depth", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "SS skewed" in out
        assert "SS binary" in out

    def test_list_includes_tree_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert "tree_fanout" in out
        assert "tree_depth" in out

    def test_validate_tree_fanout_smoke(self, capsys):
        assert main(["validate", "tree_fanout", "--fidelity", "smoke"]) == 0
        assert "direct==referee" in capsys.readouterr().out


@pytest.mark.parametrize(
    "scenario_id", ["tree_fanout", "tree_depth", "tree_deep", "tree_wide"]
)
def test_fast_fidelity_runs(scenario_id):
    import math

    result = run_scenario(scenario_id, "fast")
    for panel in result.panels:
        for series in panel.series:
            assert series.y
            assert all(math.isfinite(value) for value in series.y)
