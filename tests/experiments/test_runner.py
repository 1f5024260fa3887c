"""Tests for the experiment framework itself."""

from __future__ import annotations

import pytest

from repro.experiments import experiment_ids
from repro.experiments.runner import (
    ExperimentResult,
    Panel,
    Series,
    geometric_sweep,
    linear_sweep,
)


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("x", (1.0, 2.0), (1.0,))

    def test_error_bar_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series("x", (1.0,), (1.0,), (0.1, 0.2))

    def test_from_points(self):
        series = Series.from_points("x", [(1.0, 10.0), (2.0, 20.0)])
        assert series.x == (1.0, 2.0)
        assert series.y == (10.0, 20.0)

    def test_value_at(self):
        series = Series("x", (1.0, 2.0), (10.0, 20.0))
        assert series.value_at(2.0) == 20.0
        with pytest.raises(KeyError):
            series.value_at(3.0)

    def test_value_at_near_zero_has_no_spurious_match(self):
        # A single shared tolerance used as abs_tol made any tiny x
        # match a swept 0.0; the split rel_tol/abs_tol defaults must
        # keep exact-zero lookups working without that false positive.
        series = Series("x", (0.0, 1.0), (5.0, 6.0))
        assert series.value_at(0.0) == 5.0
        with pytest.raises(KeyError):
            series.value_at(1e-10)

    def test_value_at_explicit_tolerances(self):
        series = Series("x", (100.0,), (1.0,))
        assert series.value_at(100.0 + 1e-7, rel_tol=1e-6) == 1.0
        with pytest.raises(KeyError):
            series.value_at(100.0 + 1e-7, rel_tol=1e-12, abs_tol=0.0)


class TestPanel:
    def make_panel(self):
        return Panel(
            name="p",
            x_label="x",
            y_label="y",
            series=(Series("a", (1.0,), (1.0,)), Series("b", (1.0,), (2.0,))),
        )

    def test_series_by_label(self):
        panel = self.make_panel()
        assert panel.series_by_label("b").y == (2.0,)
        with pytest.raises(KeyError):
            panel.series_by_label("zzz")

    def test_labels(self):
        assert self.make_panel().labels() == ("a", "b")

    def test_mismatched_x_axes_rejected(self):
        with pytest.raises(ValueError, match="x-axis"):
            Panel(
                name="p",
                x_label="x",
                y_label="y",
                series=(
                    Series("a", (1.0, 2.0), (1.0, 2.0)),
                    Series("b", (1.0, 3.0), (1.0, 2.0)),
                ),
            )

    def test_shorter_series_rejected(self):
        with pytest.raises(ValueError, match="x-axis"):
            Panel(
                name="p",
                x_label="x",
                y_label="y",
                series=(Series("a", (1.0, 2.0), (1.0, 2.0)), Series("b", (1.0,), (1.0,))),
            )

    def test_parametric_panel_allows_differing_x(self):
        panel = Panel(
            name="p",
            x_label="x",
            y_label="y",
            series=(
                Series("a", (1.0, 2.0), (1.0, 2.0)),
                Series("b", (5.0,), (1.0,)),
            ),
            shared_x=False,
        )
        assert panel.labels() == ("a", "b")

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError, match="no series"):
            Panel(name="p", x_label="x", y_label="y", series=())


class TestExperimentResult:
    def make_result(self):
        panel = Panel(
            name="main",
            x_label="x",
            y_label="y",
            series=(Series("a", (1.0, 2.0), (0.5, 0.25)),),
        )
        return ExperimentResult("test", "a test", (panel,), ("a note",))

    def test_panel_lookup(self):
        result = self.make_result()
        assert result.panel("main").name == "main"
        with pytest.raises(KeyError):
            result.panel("missing")

    def test_to_text_contains_everything(self):
        text = self.make_result().to_text()
        assert "test" in text
        assert "a note" in text
        assert "0.5" in text
        assert "a" in text

    def test_to_text_renders_error_bars(self):
        panel = Panel(
            name="m",
            x_label="x",
            y_label="y",
            series=(Series("s", (1.0,), (0.5,), (0.01,)),),
        )
        text = ExperimentResult("e", "t", (panel,)).to_text()
        assert "±" in text

    def make_parametric_result(self):
        panel = Panel(
            name="tradeoff",
            x_label="I",
            y_label="M",
            series=(
                Series("a", (0.1, 0.2), (1.0, 2.0)),
                Series("b", (0.5,), (9.0,)),
            ),
            shared_x=False,
        )
        return ExperimentResult("e", "t", (panel,))

    def test_parametric_to_text_renders_per_series_blocks(self):
        text = self.make_parametric_result().to_text()
        assert "[a]" in text
        assert "[b]" in text
        # Every series' own points appear; no NaN padding rows.
        assert "0.5" in text
        assert "nan" not in text.lower()

    def test_parametric_to_csv_has_per_series_x_columns(self):
        csv_text = self.make_parametric_result().to_csv()["tradeoff"]
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a_x,a,b_x,b"
        assert lines[1] == "0.1,1,0.5,9"
        # The shorter series leaves its cells empty, not NaN.
        assert lines[2] == "0.2,2,,"

    def test_shared_csv_has_no_nan_padding(self):
        csv_text = self.make_result().to_csv()["main"]
        assert "nan" not in csv_text.lower()


class TestCsvQuoting:
    def make_result_with_label(self, label):
        panel = Panel(
            name="p",
            x_label="x",
            y_label="y",
            series=(Series(label, (1.0,), (2.0,)),),
        )
        return ExperimentResult("e", "t", (panel,))

    def test_comma_quoted(self):
        csv_text = self.make_result_with_label("a,b").to_csv()["p"]
        assert csv_text.splitlines()[0] == 'x,"a,b"'

    def test_newline_quoted(self):
        csv_text = self.make_result_with_label("two\nlines").to_csv()["p"]
        assert '"two\nlines"' in csv_text
        # The document still parses: the quoted field spans the break.
        import csv
        import io

        rows = list(csv.reader(io.StringIO(csv_text)))
        assert rows[0] == ["x", "two\nlines"]

    def test_carriage_return_quoted(self):
        csv_text = self.make_result_with_label("a\rb").to_csv()["p"]
        assert '"a\rb"' in csv_text

    def test_double_quote_escaped(self):
        csv_text = self.make_result_with_label('say "hi"').to_csv()["p"]
        assert '"say ""hi"""' in csv_text


class TestSweeps:
    def test_geometric_endpoints(self):
        sweep = geometric_sweep(1.0, 100.0, 3)
        assert sweep[0] == pytest.approx(1.0)
        assert sweep[1] == pytest.approx(10.0)
        assert sweep[2] == pytest.approx(100.0)

    def test_geometric_validation(self):
        with pytest.raises(ValueError):
            geometric_sweep(0.0, 10.0, 3)
        with pytest.raises(ValueError):
            geometric_sweep(10.0, 1.0, 3)
        with pytest.raises(ValueError):
            geometric_sweep(1.0, 10.0, 1)

    def test_linear_endpoints(self):
        sweep = linear_sweep(0.0, 1.0, 5)
        assert sweep == (0.0, 0.25, 0.5, 0.75, 1.0)

    def test_geometric_endpoint_is_exact(self):
        # 10 * ((10000/10)**(1/15))**15 drifts off 10000.0 in floating
        # point; the sweep must clamp so value_at(high) keeps working.
        sweep = geometric_sweep(10.0, 10_000.0, 16)
        assert sweep[-1] == 10_000.0
        series = Series("s", sweep, tuple(range(16)))
        assert series.value_at(10_000.0) == 15

    def test_linear_endpoint_is_exact(self):
        sweep = linear_sweep(0.1, 0.9, 7)
        assert sweep[0] == 0.1
        assert sweep[-1] == 0.9

    def test_two_point_sweeps_are_exact(self):
        assert geometric_sweep(3.0, 7.0, 2) == (3.0, 7.0)
        assert linear_sweep(3.0, 7.0, 2) == (3.0, 7.0)

    def test_geometric_interior_unchanged(self):
        sweep = geometric_sweep(1.0, 100.0, 5)
        assert sweep[2] == pytest.approx(10.0)
        assert all(a < b for a, b in zip(sweep, sweep[1:]))

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            linear_sweep(1.0, 0.0, 3)


class TestRegistry:
    EXPECTED = {
        "table1",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig17",
        "fig18",
        "fig19",
        "scaling",  # beyond the paper: heterogeneous hop-count scaling
        "tree_fanout",  # beyond the paper: multicast fan-out trees
        "tree_depth",  # beyond the paper: balanced vs skewed tree depth
        "tree_deep",  # beyond the paper: deep trees via lumped/iterative backends
        "tree_wide",  # beyond the paper: fan-outs to 64 via exact lumping
        "burst_loss",  # beyond the paper: Gilbert-Elliott bursty loss
        "burst_loss_hops",  # beyond the paper: bursty loss on a chain
        "link_flap",  # beyond the paper: periodic link outages
        "time_to_consistency",  # beyond the paper: cold-start transient
        "recovery_flap",  # beyond the paper: link-flap recovery curve
        "recovery_crash",  # beyond the paper: node-crash recovery curve
    }

    def test_every_paper_artifact_registered(self):
        assert set(experiment_ids()) == self.EXPECTED
