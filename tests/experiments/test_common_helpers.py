"""Tests for the sweep path and simulation support utilities."""

from __future__ import annotations

import pytest

import repro.runtime as runtime
from repro.core.multihop.heterogeneous import hops_from_parameters
from repro.core.multihop.topology import Topology
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.experiments.common import metric_series, parametric_singlehop_series
from repro.experiments.simsupport import (
    sessions_for_length,
    simulate_singlehop_point,
)
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime.solvers import FAMILIES

ALL = tuple(Protocol)
MULTIHOP = Protocol.multihop_family()


class TestMetricSeries:
    def test_one_series_per_protocol(self):
        base = kazaa_defaults()
        series = metric_series(
            "singlehop",
            (100.0, 1000.0),
            lambda session: base.replace(removal_rate=1.0 / session),
            lambda sol: sol.inconsistency_ratio,
            ALL,
        )
        assert [s.label for s in series] == [p.value for p in Protocol]
        assert all(len(s.y) == 2 for s in series)

    def test_protocol_subset(self):
        base = kazaa_defaults()
        series = metric_series(
            "singlehop",
            (100.0,),
            lambda session: base.replace(removal_rate=1.0 / session),
            lambda sol: sol.inconsistency_ratio,
            (Protocol.SS, Protocol.HS),
        )
        assert [s.label for s in series] == ["SS", "HS"]

    def test_multihop_series(self):
        base = reservation_defaults()
        series = metric_series(
            "multihop",
            (2.0, 4.0),
            lambda n: base.replace(hops=int(n)),
            lambda sol: sol.inconsistency_ratio,
            MULTIHOP,
        )
        assert [s.label for s in series] == [p.value for p in Protocol.multihop_family()]


#: One small point per ``FAMILIES`` tag, as its binder would return it.
_CHAIN = reservation_defaults().replace(hops=3)
_CHANNEL = GilbertElliottParameters.matched_average(0.02, 0.5)
FAMILY_POINTS = {
    "singlehop": (kazaa_defaults(), ALL, runtime.solve_singlehop_batch),
    "multihop": (_CHAIN, MULTIHOP, runtime.solve_multihop_batch),
    "heterogeneous": (
        (_CHAIN, hops_from_parameters(_CHAIN)),
        MULTIHOP,
        runtime.solve_heterogeneous_batch,
    ),
    "tree": (
        (_CHAIN.replace(hops=2), Topology.star(2)),
        MULTIHOP,
        runtime.solve_tree_batch,
    ),
    "gilbert-singlehop": (
        (kazaa_defaults(), _CHANNEL),
        ALL,
        runtime.solve_gilbert_singlehop_batch,
    ),
    "gilbert-multihop": (
        (_CHAIN.replace(hops=2), _CHANNEL),
        MULTIHOP,
        runtime.solve_gilbert_multihop_batch,
    ),
}


class TestEveryFamily:
    def test_every_family_has_a_point(self):
        assert set(FAMILY_POINTS) == set(FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_POINTS))
    def test_matches_the_family_batch(self, family):
        point, protocols, batch = FAMILY_POINTS[family]
        solved = []

        def metric(solution):
            solved.append(solution)
            return solution.inconsistency_ratio

        series = metric_series(family, (1.0,), lambda x: point, metric, protocols)
        inputs = point if isinstance(point, tuple) else (point,)
        expected = batch([(protocol, *inputs) for protocol in protocols])
        assert solved == expected
        assert [s.label for s in series] == [p.value for p in protocols]
        assert [s.y for s in series] == [(e.inconsistency_ratio,) for e in expected]


class TestParametricSweep:
    def test_points_sorted_by_x_metric(self):
        base = kazaa_defaults()
        series = parametric_singlehop_series(
            (1.0, 10.0, 100.0),
            lambda r: base.with_coupled_timers(r),
            x_metric=lambda sol: sol.inconsistency_ratio,
            y_metric=lambda sol: sol.normalized_message_rate,
            protocols=(Protocol.SS,),
        )
        xs = series[0].x
        assert xs == tuple(sorted(xs))


class TestSimSupport:
    def test_sessions_budget_split(self):
        assert sessions_for_length(100.0, 10_000.0) == 100
        assert sessions_for_length(1.0, 10_000.0) == 600  # capped high
        assert sessions_for_length(1e6, 10_000.0) == 20  # capped low

    def test_sessions_validation(self):
        with pytest.raises(ValueError):
            sessions_for_length(0.0, 100.0)
        with pytest.raises(ValueError):
            sessions_for_length(10.0, 0.0)

    def test_simulate_point_reports_cis(self):
        point = simulate_singlehop_point(
            Protocol.SS_ER,
            kazaa_defaults(),
            sessions=30,
            replications=3,
            seed=5,
        )
        assert 0.0 <= point.inconsistency <= 1.0
        assert point.inconsistency_err >= 0.0
        assert point.message_rate > 0.0
        assert point.message_rate_err >= 0.0


class TestEmptySweeps:
    def test_empty_sweep_returns_empty_series(self):
        for series in (
            metric_series("singlehop", (), lambda x: kazaa_defaults(), lambda s: 0.0, ALL),
            parametric_singlehop_series(
                (), lambda x: kazaa_defaults(), lambda s: 0.0, lambda s: 0.0, ALL
            ),
            metric_series("multihop", (), lambda x: None, lambda s: 0.0, MULTIHOP),
        ):
            assert all(s.x == () and s.y == () for s in series)
            assert len(series) >= 3
