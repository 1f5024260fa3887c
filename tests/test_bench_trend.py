"""The committed benchmark trend series and the tool that feeds it.

``benchmarks/TREND.csv`` is a reviewable performance trajectory: the
nightly bench job appends one row per benchmark via
``tools/bench_trend.py`` and the rows are committed back.  Tier-1
guards the contract: the schema never drifts, the committed series is
non-empty, and the appender stays idempotent per (commit, test).
"""

from __future__ import annotations

import csv
import datetime
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools import bench_trend

TREND = REPO_ROOT / "benchmarks" / "TREND.csv"


def _rows():
    with TREND.open(newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == bench_trend.FIELDS
        return list(reader)


class TestCommittedSeries:
    def test_schema_and_rows(self):
        rows = _rows()
        assert len(rows) >= 3, "the committed trend series must not be empty"
        for row in rows:
            datetime.date.fromisoformat(row["date"])
            assert row["commit"]
            assert row["file"].startswith("benchmarks/test_bench_")
            assert row["test"].startswith("test_bench_")
            assert float(row["median_seconds"]) > 0

    def test_no_duplicate_commit_test_pairs(self):
        keys = [(row["commit"], row["test"]) for row in _rows()]
        assert len(keys) == len(set(keys))

    def test_issue10_benches_are_recorded(self):
        files = {row["file"] for row in _rows()}
        assert "benchmarks/test_bench_chain_kernel.py" in files
        assert "benchmarks/test_bench_sim_vectorized.py" in files


class TestAppender:
    def _report(self, tmp_path, commit="abc123", name="test_bench_thing", dirty=False):
        report = {
            "datetime": "2026-08-07T03:17:00",
            "commit_info": {"id": commit, "dirty": dirty},
            "benchmarks": [
                {
                    "fullname": f"benchmarks/test_bench_thing.py::{name}",
                    "name": name,
                    "stats": {"median": 0.0123},
                }
            ],
        }
        path = tmp_path / f"BENCH_{commit}_{name}_{dirty}.json"
        path.write_text(json.dumps(report))
        return path

    def test_appends_and_stays_idempotent(self, tmp_path):
        report = self._report(tmp_path)
        trend = tmp_path / "TREND.csv"
        assert bench_trend.main([str(report), "--trend", str(trend)]) == 0
        first = trend.read_text()
        assert bench_trend.main([str(report), "--trend", str(trend)]) == 0
        assert trend.read_text() == first
        rows = list(csv.DictReader(first.splitlines()))
        assert len(rows) == 1
        assert rows[0]["commit"] == "abc123"
        assert rows[0]["median_seconds"] == "0.0123"

    def test_new_commit_appends_new_row(self, tmp_path):
        trend = tmp_path / "TREND.csv"
        bench_trend.main([str(self._report(tmp_path)), "--trend", str(trend)])
        bench_trend.main(
            [str(self._report(tmp_path, commit="def456")), "--trend", str(trend)]
        )
        rows = list(csv.DictReader(trend.read_text().splitlines()))
        assert [row["commit"] for row in rows] == ["abc123", "def456"]

    def test_dirty_tree_appends_its_own_row(self, tmp_path):
        trend = tmp_path / "TREND.csv"
        bench_trend.main([str(self._report(tmp_path)), "--trend", str(trend)])
        bench_trend.main(
            [str(self._report(tmp_path, dirty=True)), "--trend", str(trend)]
        )
        rows = list(csv.DictReader(trend.read_text().splitlines()))
        assert [row["commit"] for row in rows] == ["abc123", "abc123+dirty"]
