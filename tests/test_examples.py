"""The example scripts import cleanly, and the quick walkthroughs run.

Every example keeps its work behind a ``__main__`` guard, so importing
one runs nothing.  ``main()`` runs for the two examples that drive the
multi-hop simulators and for the extension tour; the others take up to
~30 s each and are only imported.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))
RUN_MAIN = ("beyond_the_paper", "multicast_tree", "rsvp_reservation")


def load(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_found():
    assert {path.stem for path in SCRIPTS} >= set(RUN_MAIN)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_example_imports_without_running(path, capsys):
    module = load(path)
    assert callable(module.main)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", RUN_MAIN)
def test_simulator_example_runs(name, capsys):
    load(EXAMPLES / f"{name}.py").main()
    assert capsys.readouterr().out


def test_heterogeneous_tour_rows_back_its_text(capsys):
    load(EXAMPLES / "beyond_the_paper.py").heterogeneous_tour()
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, cells = line.partition(":")
        if label.strip().startswith(("clean chain", "bad link")):
            rows[label.strip()] = [float(cell) for cell in cells.split()]
    clean = rows["clean chain"]
    first = rows["bad link at hop 1"]
    last = rows["bad link at hop 6"]
    # "End to end the two read alike ..."
    assert first[-1] == pytest.approx(last[-1], abs=5e-4)
    # "... a lossy first link starves every downstream hop ..."
    assert all(bad > 4 * ok for bad, ok in zip(first, clean))
    # "... a lossy last link only hurts itself."
    assert last[:-1] == clean[:-1]
    assert last[-1] > 4 * clean[-1]
