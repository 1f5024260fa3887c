"""Tests for the hop-count scaling experiment (heterogeneous paths)."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.experiments import experiment_ids, run_scenario
from repro.experiments.scaling import (
    CLEAN_HOP,
    CONGESTED_EVERY,
    CONGESTED_HOP,
    CONGESTED_OFFSET,
    FAST_HOP_COUNTS,
    HOP_COUNTS,
    heterogeneous_path,
)


class TestHeterogeneousPath:
    def test_deterministic_and_periodic(self):
        path = heterogeneous_path(32)
        assert path == heterogeneous_path(32)
        congested = [i for i, hop in enumerate(path) if hop == CONGESTED_HOP]
        assert congested == list(range(CONGESTED_OFFSET, 32, CONGESTED_EVERY))
        assert all(hop in (CLEAN_HOP, CONGESTED_HOP) for hop in path)

    def test_every_swept_path_is_heterogeneous(self):
        # Every swept path must mix both link kinds, otherwise the short
        # end of the sweep silently degenerates to homogeneous.
        for count in HOP_COUNTS + FAST_HOP_COUNTS:
            assert CONGESTED_HOP in heterogeneous_path(count)
            assert CLEAN_HOP in heterogeneous_path(count)

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            heterogeneous_path(0)


class TestScalingExperiment:
    def test_registered(self):
        assert "scaling" in experiment_ids()

    def test_fast_run_shape(self):
        result = run_scenario("scaling", "fast")
        assert result.experiment_id == "scaling"
        assert [panel.name for panel in result.panels] == [
            "end-to-end inconsistency",
            "per-link message overhead",
        ]
        expected_x = tuple(float(n) for n in FAST_HOP_COUNTS)
        for panel in result.panels:
            assert [s.label for s in panel.series] == [
                p.value for p in Protocol.multihop_family()
            ]
            for series in panel.series:
                assert series.x == expected_x
                assert all(y >= 0.0 for y in series.y)

    def test_fast_sweep_reaches_128_hops(self):
        # The sparse-template regime must stay covered even in fast mode.
        assert max(FAST_HOP_COUNTS) == 128
        assert max(HOP_COUNTS) == 128

    def test_inconsistency_grows_with_path_length(self):
        result = run_scenario("scaling", "fast")
        panel = result.panel("end-to-end inconsistency")
        for series in panel.series:
            assert list(series.y) == sorted(series.y), (
                f"{series.label}: inconsistency should grow with hop count"
            )
        # Soft state without reliable triggers degrades fastest.
        ss = panel.series_by_label("SS")
        hs = panel.series_by_label("HS")
        assert ss.y[-1] > hs.y[-1]

    def test_probabilities_bounded(self):
        result = run_scenario("scaling", "fast")
        for series in result.panel("end-to-end inconsistency").series:
            assert all(0.0 <= y <= 1.0 for y in series.y)
