"""Tests for the jittered timer discipline and CSV export."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.experiments import run_scenario
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import SingleHopSimulation
from repro.sim.randomness import RandomStreams, Timer, TimerDiscipline


class TestJitteredTimer:
    def test_draws_within_band(self):
        timer = Timer(10.0, TimerDiscipline.JITTERED, RandomStreams(3).stream("t"))
        draws = [timer.draw() for _ in range(500)]
        assert all(5.0 <= d <= 15.0 for d in draws)

    def test_mean_preserved(self):
        timer = Timer(10.0, TimerDiscipline.JITTERED, RandomStreams(3).stream("t"))
        draws = [timer.draw() for _ in range(20_000)]
        assert sum(draws) / len(draws) == pytest.approx(10.0, rel=0.02)

    def test_rsvp_style_jitter_preserves_model_conclusions(self, params):
        """Deployed RSVP jitters refreshes over [0.5R, 1.5R]; the
        model's metrics must be insensitive to that (regression on the
        'timers are exponential' approximation being benign)."""
        model = SingleHopModel(Protocol.SS_ER, params).solve()
        config = SingleHopSimConfig(
            protocol=Protocol.SS_ER,
            params=params,
            sessions=250,
            seed=11,
            timer_discipline=TimerDiscipline.JITTERED,
        )
        result = SingleHopSimulation(config).run()
        assert result.inconsistency_ratio == pytest.approx(
            model.inconsistency_ratio, rel=0.35
        )
        assert result.normalized_message_rate(params.removal_rate) == pytest.approx(
            model.normalized_message_rate, rel=0.2
        )


class TestCsvExport:
    def test_csv_per_panel(self):
        result = run_scenario("fig17", "fast")
        documents = result.to_csv()
        assert set(documents) == {"per-hop inconsistency"}

    def test_csv_header_and_rows(self):
        result = run_scenario("fig17", "fast")
        csv_text = result.to_csv()["per-hop inconsistency"]
        lines = csv_text.strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "hop index i"
        assert header[1:] == ["SS", "SS+RT", "HS"]
        assert len(lines) == 1 + 20  # header + one row per hop

    def test_csv_includes_error_columns_for_sim_series(self):
        result = run_scenario("fig11", "fast")
        csv_text = result.to_csv()["a: inconsistency ratio"]
        header = csv_text.splitlines()[0]
        assert "SS sim_err" in header

    def test_csv_values_roundtrip(self):
        result = run_scenario("fig17", "fast")
        csv_text = result.to_csv()["per-hop inconsistency"]
        first_row = csv_text.splitlines()[1].split(",")
        series = result.panel("per-hop inconsistency").series_by_label("SS")
        assert float(first_row[1]) == pytest.approx(series.y[0], rel=1e-9)
