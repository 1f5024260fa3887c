"""The docs contract: doctests, generated CLI reference, link integrity.

Four promises the ``docs`` CI job also enforces:

* every docstring example under ``src/repro`` actually runs (a module
  that gains ``>>>`` examples must join :data:`DOCTEST_MODULES`);
* the committed ``docs/cli.md`` matches a fresh rendering of the
  argparse tree (regenerate with ``python tools/generate_cli_docs.py``);
* the generated blocks of ``docs/architecture.md`` match the layer
  manifest and the ``FAMILIES`` table (regenerate with
  ``python tools/generate_layer_docs.py``);
* every relative link in ``docs/*.md`` and ``README.md`` resolves.

One more holds here only: every Markdown file a Python source names
exists.
"""

from __future__ import annotations

import doctest
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro.api
import repro.core.multihop.topology
import repro.experiments
import repro.experiments.spec
import repro.validation
from repro.cli import generate_cli_markdown

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
TOOLS = REPO_ROOT / "tools"
SRC = REPO_ROOT / "src"

#: Every module under ``src/repro`` whose docstrings hold ``>>>`` examples.
DOCTEST_MODULES = [
    repro.api,
    repro.core.multihop.topology,
    repro.experiments,
    repro.experiments.spec,
    repro.validation,
]


@pytest.mark.parametrize("module", DOCTEST_MODULES, ids=lambda module: module.__name__)
def test_public_surface_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module.__name__} has no doctest examples"
    assert results.failed == 0


def test_every_module_with_examples_runs_them():
    with_examples = set()
    for path in (SRC / "repro").rglob("*.py"):
        if any(line.lstrip().startswith(">>>") for line in path.read_text().splitlines()):
            parts = path.relative_to(SRC).with_suffix("").parts
            with_examples.add(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    listed = {module.__name__ for module in DOCTEST_MODULES}
    assert with_examples - listed == set(), "add these modules to DOCTEST_MODULES"


def test_generated_cli_reference_is_committed_and_in_sync():
    committed = (DOCS / "cli.md").read_text()
    assert committed == generate_cli_markdown(), (
        "docs/cli.md is out of sync with the argparse tree; regenerate "
        "with `python tools/generate_cli_docs.py`"
    )


def test_cli_reference_lists_every_scenario():
    text = (DOCS / "cli.md").read_text()
    from repro.experiments import experiment_ids

    for scenario_id in experiment_ids():
        assert scenario_id in text


def test_generate_docs_flag_prints_reference():
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "--generate-docs"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert result.returncode == 0
    assert result.stdout == generate_cli_markdown()


def _run_check_tool():
    return subprocess.run(
        [sys.executable, str(TOOLS / "generate_cli_docs.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_check_tool_passes_when_in_sync():
    result = _run_check_tool()
    assert result.returncode == 0, result.stderr


def test_check_tool_detects_drift():
    doc = DOCS / "cli.md"
    original = doc.read_text()
    try:
        doc.write_text(original + "\nstray drift line\n")
        result = _run_check_tool()
        assert result.returncode == 1
        assert "out of sync" in result.stderr
        assert "stray drift line" in result.stderr
    finally:
        doc.write_text(original)


def test_docs_links_resolve():
    sys.path.insert(0, str(TOOLS))
    try:
        import check_links
    finally:
        sys.path.remove(str(TOOLS))
    problems = []
    for document in [*sorted(DOCS.glob("*.md")), REPO_ROOT / "README.md"]:
        problems.extend(check_links.check_file(document))
    assert not problems, "\n".join(problems)


#: A Markdown file name as Python sources cite it, e.g. ``docs/cli.md``.
MARKDOWN_NAME = re.compile(r"[\w./-]*\w\.md\b")


def test_markdown_files_named_in_code_exist():
    """A docstring or comment may cite a document only if it exists.

    A name resolves from the repo root (``README.md``, ``docs/cli.md``)
    or from ``docs/`` (``cli.md``).
    """
    missing = []
    for top in ("src", "tests", "benchmarks", "tools", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for name in MARKDOWN_NAME.findall(path.read_text()):
                if not ((REPO_ROOT / name).is_file() or (DOCS / name).is_file()):
                    missing.append(f"{path.relative_to(REPO_ROOT)}: {name}")
    assert not missing, "\n".join(missing)


def test_docs_exist_and_link_to_each_other():
    names = (
        "architecture.md",
        "authoring.md",
        "validation.md",
        "cli.md",
        "linting.md",
    )
    for name in names:
        assert (DOCS / name).exists(), f"docs/{name} missing"
    readme = (REPO_ROOT / "README.md").read_text()
    for name in names:
        assert f"docs/{name}" in readme, f"README does not link docs/{name}"


def _run_layer_docs_check():
    return subprocess.run(
        [sys.executable, str(TOOLS / "generate_layer_docs.py"), "--check"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )


def test_architecture_layer_map_is_in_sync():
    result = _run_layer_docs_check()
    assert result.returncode == 0, result.stderr


def test_layer_docs_check_detects_drift():
    doc = DOCS / "architecture.md"
    original = doc.read_text()
    try:
        doc.write_text(
            original.replace("<!-- layer-map:begin -->", "<!-- layer-map:begin -->\nstray drift line")
        )
        result = _run_layer_docs_check()
        assert result.returncode == 1
        assert "stray drift line" in result.stderr
    finally:
        doc.write_text(original)


def test_family_routes_check_detects_drift():
    doc = DOCS / "architecture.md"
    original = doc.read_text()
    try:
        doc.write_text(
            original.replace(
                "`solve_tree_lumped_tasks` | tolerance |",
                "`solve_tree_lumped_tasks` | exact |",
            )
        )
        result = _run_layer_docs_check()
        assert result.returncode == 1
        assert "`solve_tree_lumped_tasks` | exact |" in result.stderr
    finally:
        doc.write_text(original)


def test_linting_doc_names_every_shipped_rule():
    """docs/linting.md's catalogue stays in sync with default_rules()."""
    sys.path.insert(0, str(REPO_ROOT))
    try:
        from tools.reprolint.rules import default_rules
    finally:
        sys.path.remove(str(REPO_ROOT))
    text = (DOCS / "linting.md").read_text()
    for rule in default_rules():
        assert f"`{rule.code}`" in text, (
            f"docs/linting.md does not document {rule.code}; keep the "
            "rule catalogue in sync with default_rules()"
        )


def test_list_scenarios_docstring_matches_registry():
    """The api.list_scenarios docstring names every registered id."""
    from repro.experiments import experiment_ids

    docstring = repro.api.list_scenarios.__doc__
    for scenario_id in experiment_ids():
        assert scenario_id in docstring, (
            "repro.api.list_scenarios docstring does not mention "
            f"{scenario_id!r}; keep docs, registry and CLI consistent"
        )
