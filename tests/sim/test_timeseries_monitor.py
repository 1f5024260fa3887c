"""Tests for the grid-sampling TimeSeriesMonitor."""

from __future__ import annotations

import pytest

from repro.sim.engine import Environment
from repro.sim.monitor import TimeSeriesMonitor, TimeWeightedValue


class TestTimeSeriesMonitor:
    def test_samples_probe_at_grid_times(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=0.0)
        monitor = TimeSeriesMonitor(env, (1.0, 3.0, 5.0), lambda: signal.value)
        env.call_later(2.0, signal.set, 7.0)
        env.call_later(4.0, signal.set, 9.0)
        env.run(until=6.0)
        assert monitor.samples() == (0.0, 7.0, 9.0)

    def test_empty_grid_records_nothing(self):
        env = Environment()
        monitor = TimeSeriesMonitor(env, (), lambda: 1.0)
        env.run(until=10.0)
        assert monitor.samples() == ()

    def test_sample_at_current_instant(self):
        env = Environment()
        monitor = TimeSeriesMonitor(env, (0.0, 2.0), lambda: env.now)
        env.run(until=5.0)
        assert monitor.samples() == (0.0, 2.0)

    def test_unsorted_grid_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            TimeSeriesMonitor(env, (2.0, 1.0), lambda: 0.0)

    def test_grid_before_now_rejected(self):
        env = Environment()
        env.run(until=5.0)
        with pytest.raises(ValueError):
            TimeSeriesMonitor(env, (1.0,), lambda: 0.0)

    def test_run_shorter_than_grid_truncates(self):
        env = Environment()
        monitor = TimeSeriesMonitor(env, (1.0, 100.0), lambda: 1.0)
        env.run(until=2.0)
        assert monitor.samples() == (1.0,)

    def test_nothing_is_sampled_before_the_run_starts(self):
        env = Environment()
        monitor = TimeSeriesMonitor(env, (0.0,), lambda: 1.0)
        assert monitor.samples() == ()
        env.run(until=0.0)
        assert monitor.samples() == (1.0,)

    def test_repeated_grid_times_each_take_a_sample(self):
        env = Environment()
        monitor = TimeSeriesMonitor(env, (1.0, 1.0, 2.0), lambda: env.now)
        env.run(until=3.0)
        assert monitor.samples() == (1.0, 1.0, 2.0)

    def test_grid_starting_at_a_later_clock(self):
        env = Environment(initial_time=5.0)
        monitor = TimeSeriesMonitor(env, (5.0, 6.5), lambda: env.now)
        env.run(until=10.0)
        assert monitor.samples() == (5.0, 6.5)

    def test_a_sample_fires_after_work_queued_earlier_for_its_instant(self):
        env = Environment()
        signal = TimeWeightedValue(env, initial=0.0)
        env.call_later(0.0, signal.set, 1.0)
        monitor = TimeSeriesMonitor(env, (0.0,), lambda: signal.value)
        env.call_later(0.0, signal.set, 2.0)
        env.run(until=1.0)
        assert monitor.samples() == (1.0,)

    def test_probe_runs_once_per_grid_time_and_then_the_sampling_stops(self):
        env = Environment()
        probed = []

        def probe():
            probed.append(env.now)
            return 0.0

        monitor = TimeSeriesMonitor(env, (1.0, 2.0, 4.0), probe)
        # Nothing stays queued after the last grid time, so the run drains.
        env.run()
        assert probed == [1.0, 2.0, 4.0]
        assert env.now == 4.0
        assert monitor.samples() == (0.0, 0.0, 0.0)

    def test_a_raising_probe_leaves_the_run_at_its_grid_time(self):
        env = Environment()

        def probe():
            if env.now >= 2.0:
                raise RuntimeError("probe")
            return 1.0

        monitor = TimeSeriesMonitor(env, (1.0, 2.0, 3.0), probe)
        with pytest.raises(RuntimeError, match="probe"):
            env.run(until=5.0)
        assert env.now == 2.0
        assert monitor.samples() == (1.0,)
