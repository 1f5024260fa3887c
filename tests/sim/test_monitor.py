"""Tests for time-weighted monitors and counters."""

from __future__ import annotations

import pytest

from repro.sim.engine import Environment
from repro.sim.monitor import StateFractionMonitor, TimeWeightedValue


class TestTimeWeightedValue:
    def test_constant_signal_integral(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=2.0)
        env.run(until=5.0)
        assert signal.integral() == pytest.approx(10.0)
        assert signal.time_average() == pytest.approx(2.0)

    def test_step_changes_integrate_piecewise(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=0.0)
        env.call_later(2.0, signal.set, 3.0)
        env.call_later(6.0, signal.set, 1.0)
        env.run(until=8.0)
        # 2s at 0 + 4s at 3 + 2s at 1 = 14
        assert signal.integral() == pytest.approx(14.0)
        assert signal.time_average() == pytest.approx(14.0 / 8.0)

    def test_zero_elapsed_average_is_zero(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=9.0)
        assert signal.time_average() == 0.0

    def test_reset_restarts_integration(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=5.0)
        env.run(until=3.0)
        signal.reset()
        env.run(until=7.0)
        assert signal.integral() == pytest.approx(20.0)
        assert signal.time_average() == pytest.approx(5.0)

    def test_repeated_set_same_time_uses_last_value(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=0.0)
        signal.set(10.0)
        signal.set(2.0)
        env.run(until=1.0)
        assert signal.integral() == pytest.approx(2.0)


class TestStateFractionMonitor:
    def test_fraction_of_time_active(self):
        env = Environment()
        monitor = StateFractionMonitor(env, initial=False)
        env.call_later(1.0, monitor.set, True)
        env.call_later(4.0, monitor.set, False)
        env.run(until=10.0)
        assert monitor.active_time() == pytest.approx(3.0)
        assert monitor.fraction() == pytest.approx(0.3)

    def test_initial_state_counts(self):
        env = Environment()
        monitor = StateFractionMonitor(env, initial=True)
        env.run(until=4.0)
        assert monitor.fraction() == pytest.approx(1.0)
        assert monitor.active

    def test_idempotent_set(self):
        env = Environment()
        monitor = StateFractionMonitor(env, initial=True)
        monitor.set(True)
        env.run(until=2.0)
        monitor.set(True)
        env.run(until=4.0)
        assert monitor.active_time() == pytest.approx(4.0)

    def test_reset_clears_history(self):
        env = Environment()
        monitor = StateFractionMonitor(env, initial=True)
        env.run(until=5.0)
        monitor.reset()
        env.run(until=10.0)
        assert monitor.active_time() == pytest.approx(5.0)
        assert monitor.fraction() == pytest.approx(1.0)
