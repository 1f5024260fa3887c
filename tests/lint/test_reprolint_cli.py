"""CLI exit codes, output formats, and the full-repo acceptance run."""

from __future__ import annotations

import json

from tools.reprolint import cli


def run_cli(root, *argv):
    return cli.main(
        [*argv, "--root", str(root), "--manifest", str(root / "layers.toml")]
    )


class TestExitCodes:
    def test_clean_run_exits_zero(self, mini_repo, capsys):
        root = mini_repo()
        assert run_cli(root, "src") == cli.EXIT_CLEAN
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, mini_repo, capsys):
        root = mini_repo({"src/pkg/core/noise.py": "rl002_violation.py"})
        assert run_cli(root, "src") == cli.EXIT_FINDINGS
        assert "RL002" in capsys.readouterr().out

    def test_missing_path_is_a_config_error(self, mini_repo, capsys):
        root = mini_repo()
        assert run_cli(root, "no-such-dir") == cli.EXIT_CONFIG
        assert "no such path" in capsys.readouterr().err

    def test_broken_manifest_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "layers.toml"
        bad.write_text("[manifest]\nschema = 99\n")
        assert cli.main(["--manifest", str(bad)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err


class TestFormats:
    def test_json_format(self, mini_repo, capsys):
        root = mini_repo({"src/pkg/core/noise.py": "rl002_violation.py"})
        assert run_cli(root, "src", "--format", "json") == cli.EXIT_FINDINGS
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["passed"] is False
        assert any(f["rule"] == "RL002" for f in payload["findings"])

    def test_list_rules(self, capsys):
        assert cli.main(["--list-rules"]) == cli.EXIT_CLEAN
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005"):
            assert code in out


class TestRealRepo:
    def test_src_repro_lints_clean(self, capsys):
        # The acceptance gate: the shipped tree against the shipped
        # manifest, exactly as CI runs it.
        assert cli.main(["src/repro", "--format", "json"]) == cli.EXIT_CLEAN
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["files_checked"] > 50
        assert payload["suppressed"] == []
