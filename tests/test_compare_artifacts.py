"""``tools/compare_artifacts.py`` on synthetic artifact directories."""

from __future__ import annotations

import json
import math
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import compare_artifacts

ARTIFACT = {
    "scenario": "fig04",
    "panels": [
        {"name": "a", "series": [{"label": "SS", "x": [0.01, 0.02], "y": [0.1, 0.2]}]}
    ],
}


def _write(root: pathlib.Path, name: str, document) -> None:
    root.mkdir(parents=True, exist_ok=True)
    (root / name).write_text(json.dumps(document, indent=2))


def _pair(tmp_path, head_document=ARTIFACT):
    base, head = tmp_path / "base", tmp_path / "head"
    _write(base, "fig04.json", ARTIFACT)
    _write(base, "fig05.json", {"scenario": "fig05", "value": 1.5})
    _write(head, "fig04.json", head_document)
    _write(head, "fig05.json", {"scenario": "fig05", "value": 1.5})
    return base, head


def test_identical_directories_pass(tmp_path, capsys):
    base, head = _pair(tmp_path)
    assert compare_artifacts.main([str(base), str(head)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "fig04.json: byte-identical",
        "fig05.json: byte-identical",
        "2/2 files byte-identical",
    ]


def test_one_ulp_is_counted_and_fails(tmp_path, capsys):
    moved = json.loads(json.dumps(ARTIFACT))
    y = moved["panels"][0]["series"][0]["y"]
    y[1] = math.nextafter(y[1], 1.0)
    base, head = _pair(tmp_path, moved)
    assert compare_artifacts.main([str(base), str(head)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("fig04.json: 1 of 4 numbers moved, max relative change 1.39e-16")
    assert line.endswith("no structural difference")


def test_missing_file_fails(tmp_path, capsys):
    base, head = _pair(tmp_path)
    (head / "fig05.json").unlink()
    assert compare_artifacts.main([str(base), str(head)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1] == f"fig05.json: missing in {head}"
    assert out[2] == "1/2 files byte-identical"


def test_changed_label_is_the_first_structural_difference(tmp_path, capsys):
    relabeled = json.loads(json.dumps(ARTIFACT))
    relabeled["panels"][0]["series"][0]["label"] = "HS"
    base, head = _pair(tmp_path, relabeled)
    assert compare_artifacts.main([str(base), str(head)]) == 1
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (
        "fig04.json: 0 of 4 numbers moved, max relative change 0; first structural "
        "difference at $.panels[0].series[0].label: 'SS' != 'HS'"
    )


def test_usage_error(capsys):
    assert compare_artifacts.main(["only-one"]) == 2
    assert "usage" in capsys.readouterr().err
