"""The example scripts import cleanly, and the simulator walkthroughs run.

Every example keeps its work behind a ``__main__`` guard, so importing
one runs nothing.  ``main()`` runs for the two examples that drive the
multi-hop simulators; the others take up to ~30 s each and are only
imported.
"""

from __future__ import annotations

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
SCRIPTS = sorted(EXAMPLES.glob("*.py"))
RUN_MAIN = ("multicast_tree", "rsvp_reservation")


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
