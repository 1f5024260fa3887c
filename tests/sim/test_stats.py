"""Tests for replication statistics and confidence intervals."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import ConfidenceInterval, ReplicationSet, student_t_interval


class TestStudentTInterval:
    def test_known_small_sample(self):
        # mean 2, sample std 1, n = 4 -> half-width = t_{0.975,3} * 0.5
        interval = student_t_interval([1.0, 2.0, 2.0, 3.0], confidence=0.95)
        assert interval.mean == pytest.approx(2.0)
        expected_half = 3.1824463052842638 * math.sqrt((2.0 / 3.0) / 4.0)
        assert interval.half_width == pytest.approx(expected_half, rel=1e-6)

    def test_identical_samples_zero_width(self):
        interval = student_t_interval([5.0] * 10)
        assert interval.mean == 5.0
        assert interval.half_width == pytest.approx(0.0)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_zero_variance_interval_is_degenerate_not_nan(self, n):
        # Regression: all-identical samples must yield an exactly-zero,
        # finite half-width (no sqrt/ppf NaN leakage) whose interval
        # still contains the common value.
        interval = student_t_interval([2.5] * n)
        assert interval.half_width == 0.0
        assert math.isfinite(interval.half_width)
        assert interval.low == interval.high == interval.mean == 2.5
        assert interval.contains(2.5)
        assert not interval.contains(2.5 + 1e-12)

    def test_single_sample_infinite_width(self):
        interval = student_t_interval([3.0])
        assert interval.mean == 3.0
        assert math.isinf(interval.half_width)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            student_t_interval([])

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.5, 2.0])
    def test_invalid_confidence_rejected(self, confidence):
        with pytest.raises(ValueError):
            student_t_interval([1.0, 2.0], confidence=confidence)

    @pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99])
    def test_half_width_is_the_scipy_stats_formula(self, confidence):
        # The quantile comes from scipy.special.stdtrit, the function
        # scipy.stats.t.ppf evaluates: every half-width is the same float.
        from scipy import stats

        for df in range(1, 201):
            samples = [float(k % 7) + 0.25 * k for k in range(df + 1)]
            mean = sum(samples) / len(samples)
            variance = sum((x - mean) ** 2 for x in samples) / df
            t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=df))
            expected = t_crit * math.sqrt(variance / len(samples))
            assert student_t_interval(samples, confidence).half_width == expected

    def test_higher_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        narrow = student_t_interval(samples, confidence=0.90)
        wide = student_t_interval(samples, confidence=0.99)
        assert wide.half_width > narrow.half_width

    @given(
        samples=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_interval_contains_mean(self, samples):
        interval = student_t_interval(samples)
        mean = sum(samples) / len(samples)
        assert interval.contains(mean)
        assert interval.low <= interval.high


class TestConfidenceInterval:
    def test_endpoints(self):
        interval = ConfidenceInterval(mean=10.0, half_width=2.0, confidence=0.95, n=5)
        assert interval.low == 8.0
        assert interval.high == 12.0
        assert interval.contains(9.0)
        assert not interval.contains(13.0)

    def test_str_mentions_confidence_and_n(self):
        text = str(ConfidenceInterval(mean=1.0, half_width=0.1, confidence=0.95, n=7))
        assert "95%" in text
        assert "n=7" in text


class TestReplicationSet:
    def test_mean_and_count(self):
        replications = ReplicationSet()
        for value in (1.0, 2.0, 3.0):
            replications.add("metric", value)
        assert replications.count("metric") == 3
        assert replications.mean("metric") == pytest.approx(2.0)

    def test_multiple_metrics_independent(self):
        replications = ReplicationSet()
        replications.add("a", 1.0)
        replications.add("b", 10.0)
        assert replications.metrics() == ["a", "b"]
        assert replications.samples("a") == [1.0]

    def test_interval_delegates(self):
        replications = ReplicationSet()
        for value in (1.0, 2.0, 3.0, 4.0):
            replications.add("m", value)
        interval = replications.interval("m")
        assert interval.n == 4
        assert interval.mean == pytest.approx(2.5)

    def test_non_finite_sample_rejected(self):
        replications = ReplicationSet()
        with pytest.raises(ValueError):
            replications.add("m", float("nan"))
        with pytest.raises(ValueError):
            replications.add("m", float("inf"))

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            ReplicationSet().mean("missing")

    @pytest.mark.parametrize("accessor", ["samples", "mean", "interval"])
    def test_unknown_metric_error_lists_known_metrics(self, accessor):
        replications = ReplicationSet()
        replications.add("inconsistency_ratio", 0.1)
        replications.add("normalized_message_rate", 2.0)
        with pytest.raises(KeyError) as excinfo:
            getattr(replications, accessor)("missing")
        message = str(excinfo.value)
        assert "missing" in message
        assert "inconsistency_ratio" in message
        assert "normalized_message_rate" in message

    def test_unknown_metric_error_on_empty_set(self):
        with pytest.raises(KeyError) as excinfo:
            ReplicationSet().samples("anything")
        assert "none recorded" in str(excinfo.value)
