"""Append pytest-benchmark results to the committed trend series.

Stdlib-only, like the rest of ``tools/``.  Reads one or more
pytest-benchmark JSON files (``BENCH_*.json``) and appends one CSV row
per benchmark to ``benchmarks/TREND.csv``::

    date,commit,file,test,median_seconds

Rows already present for the same ``(commit, test)`` pair are skipped,
so re-running on the same checkout is idempotent and the series never
double-counts a commit.  A report taken on a dirty work tree records
its commit as ``<id>+dirty``, so a change measured before it is
committed never collides with its base commit's rows.  The nightly bench job runs this after each
suite and uploads the updated CSV; committing it back keeps a
performance trajectory reviewable in-repo.

Usage::

    python tools/bench_trend.py BENCH_transient.json [more.json ...] \
        [--trend benchmarks/TREND.csv]
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import pathlib
import sys

FIELDS = ("date", "commit", "file", "test", "median_seconds")


def _rows_from_report(path: pathlib.Path) -> list[dict[str, str]]:
    report = json.loads(path.read_text())
    commit_info = report.get("commit_info", {})
    commit = commit_info.get("id") or "unknown"
    if commit_info.get("dirty"):
        # Measured on uncommitted changes over ``commit``: a distinct row.
        commit += "+dirty"
    date = (report.get("datetime") or "")[:10] or datetime.date.today().isoformat()
    rows = []
    for bench in report.get("benchmarks", ()):
        rows.append(
            {
                "date": date,
                "commit": commit,
                "file": bench.get("fullname", "").split("::")[0],
                "test": bench["name"],
                "median_seconds": f"{bench['stats']['median']:.6g}",
            }
        )
    return rows


def _existing_keys(trend: pathlib.Path) -> set[tuple[str, str]]:
    if not trend.exists():
        return set()
    with trend.open(newline="") as handle:
        return {(row["commit"], row["test"]) for row in csv.DictReader(handle)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reports", nargs="+", type=pathlib.Path,
                        help="pytest-benchmark JSON file(s)")
    parser.add_argument("--trend", type=pathlib.Path,
                        default=pathlib.Path("benchmarks/TREND.csv"),
                        help="trend CSV to append to (default: %(default)s)")
    args = parser.parse_args(argv)

    seen = _existing_keys(args.trend)
    fresh = []
    for report in args.reports:
        for row in _rows_from_report(report):
            key = (row["commit"], row["test"])
            if key not in seen:
                seen.add(key)
                fresh.append(row)

    new_file = not args.trend.exists()
    with args.trend.open("a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=FIELDS)
        if new_file:
            writer.writeheader()
        writer.writerows(fresh)
    print(f"{args.trend}: appended {len(fresh)} row(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
