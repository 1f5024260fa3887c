"""Compare two directories of JSON artifacts, file by file.

Stdlib-only, like the rest of ``tools/``.  Reads every ``*.json`` file
under two directories -- typically the artifacts
``python -m repro.cli all --format json --output-dir D`` writes from two
checkouts -- and prints one line per file: byte-identical, missing on
one side, or how many of its numbers moved, the largest relative change
among them, and the first structural difference (a key, string, length
or type that differs).  A last line counts the byte-identical files.

Exits 0 only when both directories hold the same files and every file
is byte-identical; 1 otherwise.

Usage::

    python tools/compare_artifacts.py BASE HEAD
"""

from __future__ import annotations

import json
import math
import pathlib
import sys


def _json_files(root: pathlib.Path) -> set[str]:
    return {path.relative_to(root).as_posix() for path in root.rglob("*.json") if path.is_file()}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative_change(base: float, head: float) -> float:
    scale = max(abs(base), abs(head))
    change = abs(base - head) / scale if scale else 0.0
    return change if math.isfinite(change) else math.inf


class _Diff:
    """Walks two parsed documents side by side."""

    def __init__(self) -> None:
        self.numbers = 0
        self.moved = 0
        self.max_change = 0.0
        self.structural: str | None = None

    def _structure(self, where: str, what: str) -> None:
        if self.structural is None:
            self.structural = f"{where}: {what}"

    def walk(self, base, head, where: str = "$") -> None:
        if _is_number(base) and _is_number(head):
            self.numbers += 1
            if base != head and not (math.isnan(base) and math.isnan(head)):
                self.moved += 1
                self.max_change = max(self.max_change, _relative_change(base, head))
        elif isinstance(base, dict) and isinstance(head, dict):
            if list(base) != list(head):
                self._structure(where, f"keys {list(base)} != {list(head)}")
            for key in base:
                if key in head:
                    self.walk(base[key], head[key], f"{where}.{key}")
        elif isinstance(base, list) and isinstance(head, list):
            if len(base) != len(head):
                self._structure(where, f"length {len(base)} != {len(head)}")
            for index, (left, right) in enumerate(zip(base, head)):
                self.walk(left, right, f"{where}[{index}]")
        elif type(base) is not type(head) or base != head:
            self._structure(where, f"{base!r} != {head!r}")


def describe(base_path: pathlib.Path, head_path: pathlib.Path) -> tuple[bool, str]:
    """``(byte_identical, report)`` for one file present on both sides."""
    base_bytes, head_bytes = base_path.read_bytes(), head_path.read_bytes()
    if base_bytes == head_bytes:
        return True, "byte-identical"
    try:
        base, head = json.loads(base_bytes), json.loads(head_bytes)
    except ValueError:
        return False, "differs, and one side is not valid JSON"
    diff = _Diff()
    diff.walk(base, head)
    structure = (
        f"first structural difference at {diff.structural}"
        if diff.structural
        else "no structural difference"
    )
    return False, (
        f"{diff.moved} of {diff.numbers} numbers moved, "
        f"max relative change {diff.max_change:.3g}; {structure}"
    )


def compare(base_root: pathlib.Path, head_root: pathlib.Path) -> tuple[bool, list[str]]:
    """``(all_identical, report_lines)`` for two artifact directories."""
    base_files, head_files = _json_files(base_root), _json_files(head_root)
    names = sorted(base_files | head_files)
    lines = []
    identical = 0
    for name in names:
        if name not in head_files:
            lines.append(f"{name}: missing in {head_root}")
        elif name not in base_files:
            lines.append(f"{name}: missing in {base_root}")
        else:
            same, report = describe(base_root / name, head_root / name)
            identical += same
            lines.append(f"{name}: {report}")
    lines.append(f"{identical}/{len(names)} files byte-identical")
    return identical == len(names), lines


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tools/compare_artifacts.py BASE HEAD", file=sys.stderr)
        return 2
    roots = [pathlib.Path(arg) for arg in args]
    for root in roots:
        if not root.is_dir():
            print(f"not a directory: {root}", file=sys.stderr)
            return 2
    same, lines = compare(*roots)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
