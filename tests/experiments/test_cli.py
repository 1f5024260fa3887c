"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import experiment_ids
from repro.experiments.runner import ExperimentResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_accepts_flags(self):
        args = build_parser().parse_args(["run", "fig4", "--fidelity", "fast"])
        assert args.experiment == "fig4"
        assert args.fidelity == "fast"
        assert args.jobs is None

    def test_jobs_flag_parsed(self):
        assert build_parser().parse_args(["run", "fig4", "--jobs", "4"]).jobs == 4
        assert build_parser().parse_args(["all", "--jobs", "2"]).jobs == 2
        assert build_parser().parse_args(["claims", "--jobs", "2"]).jobs == 2


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(experiment_ids())

    def test_run_prints_table(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "SS+RTR" in out

    def test_run_fast_figure(self, capsys):
        assert main(["run", "fig5", "--fidelity", "fast"]) == 0
        out = capsys.readouterr().out
        assert "loss rate" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        target = tmp_path / "out" / "fig5.txt"
        assert main(["run", "fig5", "--fidelity", "fast", "--output", str(target)]) == 0
        assert target.exists()
        assert "loss rate" in target.read_text()

    def test_claims_command(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "explicit removal" in out

    def test_run_with_jobs_matches_serial(self, capsys):
        assert main(["run", "fig17", "--fidelity", "fast"]) == 0
        serial = capsys.readouterr().out
        assert main(["run", "fig17", "--fidelity", "fast", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial


class TestFidelity:
    def test_fidelity_flag_parsed(self):
        args = build_parser().parse_args(["run", "fig4", "--fidelity", "smoke"])
        assert args.fidelity == "smoke"

    @pytest.mark.parametrize("command", [["run", "table1"], ["all"], ["validate", "fig4"]])
    def test_removed_fast_flag_exits_2(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--fast"])
        assert excinfo.value.code == 2

    def test_smoke_thins_sweeps(self, capsys):
        assert main(["run", "fig4", "--fidelity", "smoke"]) == 0
        smoke = capsys.readouterr().out
        assert main(["run", "fig4", "--fidelity", "fast"]) == 0
        fast = capsys.readouterr().out
        assert smoke.count("\n") < fast.count("\n")


class TestExitCodes:
    def test_unknown_scenario_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig99"])
        assert excinfo.value.code == 2

    def test_unknown_override_key_exits_2(self, capsys):
        assert main(["run", "fig4", "--fidelity", "smoke", "--set", "bogus=1"]) == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_malformed_override_exits_2(self, capsys):
        assert main(["run", "fig4", "--set", "loss_rate"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_non_numeric_override_exits_2(self, capsys):
        assert main(["run", "fig4", "--set", "loss_rate=abc"]) == 2
        assert "not a number" in capsys.readouterr().err

    def test_out_of_range_override_exits_2(self, capsys):
        assert main(["run", "fig4", "--fidelity", "smoke", "--set", "loss_rate=1.5"]) == 2
        assert "loss_rate" in capsys.readouterr().err

    def test_unsupported_protocol_exits_2(self, capsys):
        assert main(["run", "fig17", "--protocols", "ss+er"]) == 2
        assert "does not model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scenario_id,hops,element",
        [
            ("recovery_flap", 2, "link 4"),
            ("recovery_flap", 6, "link 4"),
            ("recovery_crash", 2, "node 4"),
            ("recovery_crash", 6, "node 4"),
        ],
    )
    def test_hops_off_the_faulted_hop_exits_2(self, capsys, scenario_id, hops, element):
        argv = ["run", scenario_id, "--fidelity", "smoke", "--set", f"hops={hops}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"error: {scenario_id} faults {element}, but hops={hops}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("scenario_id", ["recovery_flap", "recovery_crash"])
    def test_hops_on_the_faulted_hop_runs(self, capsys, scenario_id):
        argv = ["run", scenario_id, "--fidelity", "smoke", "--format", "json"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--set", "hops=4"]) == 0
        pinned = json.loads(capsys.readouterr().out)
        assert pinned["panels"] == default["panels"]


class TestStructuredOutput:
    def test_format_json_round_trips_with_provenance(self, capsys):
        assert (
            main(
                [
                    "run",
                    "fig4",
                    "--fidelity",
                    "smoke",
                    "--set",
                    "loss_rate=0.05",
                    "--protocols",
                    "ss,hs",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        result = ExperimentResult.from_json(out)
        assert result.experiment_id == "fig4"
        assert result.provenance.fidelity == "smoke"
        assert result.provenance.overrides == (("loss_rate", 0.05),)
        assert result.provenance.protocols == ("SS", "HS")
        assert result.panels[0].labels() == ("SS", "HS")

    def test_format_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "fig4.json"
        assert (
            main(
                ["run", "fig4", "--fidelity", "smoke", "--format", "json", "--output", str(target)]
            )
            == 0
        )
        document = json.loads(target.read_text())
        assert document["schema_version"] == 1

    def test_format_csv_prints_panel_blocks(self, capsys):
        assert main(["run", "table1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "# panel: transition rates" in out
        assert "row index" in out


class TestAllCommand:
    def test_all_smoke_writes_json_and_csvs(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        csv_dir = tmp_path / "csv"
        assert (
            main(
                [
                    "all",
                    "--fidelity",
                    "smoke",
                    "--format",
                    "json",
                    "--output-dir",
                    str(out_dir),
                    "--csv-dir",
                    str(csv_dir),
                ]
            )
            == 0
        )
        for experiment_id in experiment_ids():
            artifact = out_dir / f"{experiment_id}.json"
            assert artifact.exists()
            result = ExperimentResult.from_json(artifact.read_text())
            assert result.provenance.fidelity == "smoke"
            assert list(csv_dir.glob(f"{experiment_id}_*.csv")), experiment_id


class TestValidateCommand:
    def test_parser_defaults_to_all(self):
        args = build_parser().parse_args(["validate"])
        assert args.target == "all"
        assert args.format == "text"

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["validate", "fig99"])

    def test_validate_one_scenario_text(self, capsys):
        assert main(["validate", "fig4", "--fidelity", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "validation fig4 [smoke]: PASS" in out
        assert "singlehop SS: template==referee" in out
        assert "all passed" in out

    def test_validate_json_artifact_round_trips(self, capsys):
        from repro.validation import ValidationReport

        assert main(["validate", "fig11", "--fidelity", "smoke", "--format", "json"]) == 0
        report = ValidationReport.from_json(capsys.readouterr().out)
        assert report.scenario_id == "fig11"
        assert report.passed
        assert any(check.kind == "sim_model" for check in report.checks)

    def test_validate_writes_output_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        assert (
            main(
                [
                    "validate",
                    "fig4",
                    "--fidelity",
                    "smoke",
                    "--format",
                    "json",
                    "--output-dir",
                    str(out_dir),
                ]
            )
            == 0
        )
        assert (out_dir / "validate_fig4.json").exists()

    def test_validate_seed_override(self, capsys):
        # A different simulation seed still passes the equivalence
        # checks (the margins absorb replication noise).
        assert main(["validate", "fig11", "--fidelity", "smoke", "--seed", "23"]) == 0

    def test_validate_seed_zero_accepted(self, capsys):
        # Seed 0 is valid everywhere in the library; the CLI must not
        # reject it.
        assert main(["validate", "fig11", "--fidelity", "smoke", "--seed", "0"]) == 0

    def test_validate_output_and_output_dir_conflict(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["validate", "fig4", "--output", "a.txt", "--output-dir", "d"]
            )
        assert excinfo.value.code == 2

    def test_validate_output_dir_prints_summary(self, tmp_path, capsys):
        assert (
            main(
                [
                    "validate",
                    "fig4",
                    "--fidelity",
                    "smoke",
                    "--output-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "all passed" in out
        assert (tmp_path / "validate_fig4.txt").exists()
