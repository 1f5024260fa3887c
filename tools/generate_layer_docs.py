#!/usr/bin/env python
"""Regenerate (or drift-check) the generated blocks of ``docs/architecture.md``.

Usage::

    python tools/generate_layer_docs.py            # rewrite the blocks in place
    python tools/generate_layer_docs.py --check    # exit 1 if out of sync

Two marked blocks are rendered (same pattern as ``generate_cli_docs.py``
for the CLI reference):

* ``<!-- layer-map:begin -->`` / ``<!-- layer-map:end -->`` from
  ``tools/reprolint/layers.toml`` — the same manifest reprolint rule
  RL001 enforces — so the documented DAG and the enforced DAG cannot
  diverge;
* ``<!-- family-routes:begin -->`` / ``<!-- family-routes:end -->``
  from ``FAMILIES`` and ``PARITY_CLASSES`` in
  ``src/repro/runtime/solvers.py``: each model family's backend routes,
  the ``core/templates.py`` entry point serving each, and its parity
  class.  ``src/`` is put on ``sys.path`` automatically.
"""

from __future__ import annotations

import argparse
import difflib
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.runtime.solvers import FAMILIES, PARITY_CLASSES  # noqa: E402 - path setup first
from tools.reprolint.manifest import LayerManifest, load_manifest  # noqa: E402

DOC_PATH = REPO_ROOT / "docs" / "architecture.md"
BEGIN = "<!-- layer-map:begin -->"
END = "<!-- layer-map:end -->"
FAMILY_BEGIN = "<!-- family-routes:begin -->"
FAMILY_END = "<!-- family-routes:end -->"


def _display_path(manifest: LayerManifest, module: str) -> str:
    base = f"{manifest.source_root}/{module}"
    if (REPO_ROOT / base).is_dir():
        return base
    return f"{base}.py"


def render_layer_map(manifest: LayerManifest) -> str:
    """The generated markdown block (markers included)."""
    lines = [
        BEGIN,
        "<!-- generated from tools/reprolint/layers.toml by",
        "     tools/generate_layer_docs.py; edit the manifest, not this block -->",
        "",
        "```",
    ]
    rows = [
        (_display_path(manifest, module), layer.description)
        for layer in manifest.layers
        for module in layer.modules
    ]
    width = max(len(path) for path, _ in rows)
    lines.extend(f"{path:<{width}}  {description}" for path, description in rows)
    lines.append("```")
    lines.extend(
        [
            "",
            "Dependencies point downward only — machine-checked by reprolint",
            "rule RL001 ([linting guide](linting.md)) against the manifest in",
            "`tools/reprolint/layers.toml`.  Each layer's declared imports:",
            "",
            "| Layer | May import from |",
            "| --- | --- |",
        ]
    )
    for layer in manifest.layers:
        depends = ", ".join(f"`{dep}`" for dep in layer.depends) or "—"
        lines.append(f"| `{layer.name}` | {depends} |")
    lines.append(END)
    return "\n".join(lines)


def render_family_routes() -> str:
    """The generated family/route table (markers included)."""
    lines = [
        FAMILY_BEGIN,
        "<!-- generated from FAMILIES + PARITY_CLASSES (src/repro/runtime/solvers.py)",
        "     by tools/generate_layer_docs.py; edit the table, not this block -->",
        "",
        "| Family | Route | Entry point (`core/templates.py`) | Parity class |",
        "| --- | --- | --- | --- |",
    ]
    for family in FAMILIES.values():
        for route, entry in family.routes.items():
            lines.append(
                f"| `{family.tag}` | `{route}` | `{entry}` | {PARITY_CLASSES[entry]} |"
            )
    lines.append(FAMILY_END)
    return "\n".join(lines)


def _splice(text: str, begin: str, end: str, block: str) -> str:
    try:
        head, rest = text.split(begin, 1)
        _, tail = rest.split(end, 1)
    except ValueError:
        raise SystemExit(
            f"{DOC_PATH}: missing {begin} / {end} markers; cannot splice"
        ) from None
    return head + block + tail


def spliced_document(manifest: LayerManifest) -> str:
    """``docs/architecture.md`` with freshly rendered generated blocks."""
    text = _splice(DOC_PATH.read_text(), BEGIN, END, render_layer_map(manifest))
    return _splice(text, FAMILY_BEGIN, FAMILY_END, render_family_routes())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when the committed block is out of sync "
        "instead of rewriting it",
    )
    args = parser.parse_args(argv)
    manifest = load_manifest()
    generated = spliced_document(manifest)
    committed = DOC_PATH.read_text()
    if args.check:
        if committed == generated:
            print(f"{DOC_PATH.relative_to(REPO_ROOT)} generated blocks are in sync")
            return 0
        diff = difflib.unified_diff(
            committed.splitlines(keepends=True),
            generated.splitlines(keepends=True),
            fromfile="docs/architecture.md (committed)",
            tofile="docs/architecture.md (generated)",
        )
        sys.stderr.writelines(diff)
        print(
            "docs/architecture.md generated blocks are out of sync with "
            "tools/reprolint/layers.toml or runtime/solvers.py FAMILIES; "
            "regenerate with `python tools/generate_layer_docs.py`",
            file=sys.stderr,
        )
        return 1
    if committed != generated:
        DOC_PATH.write_text(generated)
        print(f"wrote {DOC_PATH.relative_to(REPO_ROOT)}")
    else:
        print(f"{DOC_PATH.relative_to(REPO_ROOT)} already in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
