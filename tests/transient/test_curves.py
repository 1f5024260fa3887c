"""Tests for transient curves and their SLO metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.multihop.topology import Topology
from repro.core.protocols import Protocol
from repro.faults.schedule import FaultSchedule, LinkFlap
from repro.transient import (
    TransientCurve,
    compute_transient_curve,
    compute_transient_point,
    first_crossing,
    time_to_consistency,
    time_to_recover,
)


class TestFirstCrossing:
    def test_interpolates_between_grid_points(self):
        assert first_crossing((0.0, 10.0), (0.0, 1.0), 0.5) == pytest.approx(5.0)

    def test_exact_hit_on_grid_point(self):
        assert first_crossing((0.0, 2.0, 4.0), (0.0, 0.5, 1.0), 0.5) == 2.0

    def test_already_above_at_start(self):
        assert first_crossing((1.0, 2.0), (0.9, 0.95), 0.5) == 1.0

    def test_never_reached_is_inf(self):
        assert math.isinf(first_crossing((0.0, 1.0), (0.1, 0.2), 0.5))

    def test_after_skips_earlier_crossings(self):
        times = (0.0, 1.0, 2.0, 3.0, 4.0)
        values = (0.9, 0.9, 0.1, 0.1, 0.9)
        assert first_crossing(times, values, 0.5) == 0.0
        recovered = first_crossing(times, values, 0.5, after=2.0)
        assert 3.0 < recovered <= 4.0

    def test_flat_segment_crossing_snaps_to_right_edge(self):
        assert first_crossing((0.0, 1.0, 2.0), (0.5, 0.5, 0.5), 0.5) == 0.0


class TestCurveMetrics:
    def test_time_to_consistency_validates_target(self):
        curve = TransientCurve(Protocol.SS, (0.0, 1.0), (0.0, 0.9))
        with pytest.raises(ValueError):
            time_to_consistency(curve, target=1.5)

    def test_time_to_recover_is_absolute(self):
        curve = TransientCurve(
            Protocol.SS, (0.0, 10.0, 20.0, 30.0), (0.9, 0.1, 0.1, 0.9)
        )
        recovered = time_to_recover(curve, after=20.0, level=0.5)
        assert 20.0 < recovered <= 30.0
        with pytest.raises(ValueError):
            time_to_recover(curve, after=float("inf"), level=0.5)

    def test_curve_validates_grid(self):
        with pytest.raises(ValueError):
            TransientCurve(Protocol.SS, (0.0, 1.0), (0.5,))
        with pytest.raises(ValueError):
            TransientCurve(Protocol.SS, (1.0, 0.0), (0.5, 0.5))


class TestComputeTransientCurve:
    def test_cold_start_rises_from_zero(self, multihop_params):
        curve = compute_transient_curve(
            Protocol.SS, multihop_params, (0.0, 0.5, 2.0, 20.0)
        )
        assert curve.consistency[0] == pytest.approx(0.0)
        assert curve.consistency[1] < curve.consistency[2] < curve.consistency[3]

    def test_single_hop_family(self, params):
        curve = compute_transient_curve(Protocol.SS, params, (0.1, 1.0))
        assert 0.0 <= curve.consistency[0] <= curve.consistency[1] <= 1.0

    def test_tree_family_cold_start(self, multihop_params):
        topology = Topology.kary(2, 2)
        tree_params = multihop_params.replace(hops=topology.num_edges)
        curve = compute_transient_curve(
            Protocol.SS, tree_params, (0.5, 5.0), topology=topology
        )
        assert 0.0 < curve.consistency[1] <= 1.0

    def test_reliable_triggers_rebuild_faster_through_flap(self, multihop_params):
        # During an outage SS+RT behaves like SS (retransmissions die at
        # the cut too), but after the link returns the pending rebuild
        # completes faster.  Probe just after the up-edge.
        schedule = FaultSchedule(
            flaps=(
                LinkFlap(
                    link=multihop_params.hops,
                    period=10_000.0,
                    down_duration=40.0,
                    offset=5.0,
                ),
            )
        )
        probe = (52.0,)
        ss = compute_transient_curve(
            Protocol.SS, multihop_params, probe, initial="stationary",
            faults=schedule,
        )
        rt = compute_transient_curve(
            Protocol.SS_RT, multihop_params, probe, initial="stationary",
            faults=schedule,
        )
        assert rt.consistency[0] >= ss.consistency[0]

    def test_point_is_one_point_curve(self, multihop_params):
        point = compute_transient_point(Protocol.SS, multihop_params, 2.0)
        curve = compute_transient_curve(Protocol.SS, multihop_params, (2.0,))
        assert point == curve.consistency[0]


def _setup_horizon(params, points=512):
    """A geometric grid from a tenth of Delta to ten refreshes past it."""
    return tuple(
        float(t)
        for t in np.geomspace(
            params.delay / 10.0, params.delay + 10.0 * params.refresh_interval, points
        )
    )


class TestSingleHopColdStart:
    """Physics of the single-hop curve from a cold start (setup at t=0)."""

    def test_starts_at_zero(self, params):
        curve = compute_transient_curve(Protocol.SS, params, (0.0,))
        assert curve.consistency[0] == pytest.approx(0.0)

    def test_rises_past_channel_delay(self, params):
        curve = compute_transient_curve(
            Protocol.SS, params, (params.delay / 10, params.delay, 5 * params.delay)
        )
        assert curve.consistency[0] < curve.consistency[1] < curve.consistency[2]

    def test_matches_exponential_delay_race_at_2_delta(self, params):
        # The model's delay is exponential, so at t = 2*Delta:
        # P ~ (1 - p_l) * (1 - e^-2), not the deterministic (1 - p_l).
        curve = compute_transient_curve(Protocol.SS, params, (2 * params.delay,))
        expected = (1 - params.loss_rate) * (1 - math.exp(-2.0))
        assert curve.consistency[0] == pytest.approx(expected, abs=0.02)

    def test_approaches_one_minus_loss_by_10_delta(self, params):
        # Once the delay race has resolved, one trigger attempt has
        # succeeded with probability ~ 1 - p_l.
        curve = compute_transient_curve(Protocol.SS, params, (10 * params.delay,))
        assert curve.consistency[0] == pytest.approx(1 - params.loss_rate, abs=0.015)

    def test_reliable_triggers_converge_faster_under_loss(self, params):
        lossy = params.replace(loss_rate=0.3)
        probe = (4 * lossy.retransmission_interval,)
        ss = compute_transient_curve(Protocol.SS, lossy, probe)
        rt = compute_transient_curve(Protocol.SS_RT, lossy, probe)
        assert rt.consistency[0] > ss.consistency[0]

    def test_t90_within_a_few_delays(self, params):
        curve = compute_transient_curve(Protocol.SS, params, _setup_horizon(params))
        t90 = time_to_consistency(curve, target=0.9)
        assert params.delay * 0.5 <= t90 <= params.delay * 3

    def test_tighter_target_takes_longer(self, params):
        curve = compute_transient_curve(Protocol.SS_RT, params, _setup_horizon(params))
        assert time_to_consistency(curve, 0.97) >= time_to_consistency(curve, 0.90)

    def test_unreachable_target_is_inf(self, params):
        # Updates and removals keep P(consistent) strictly below ~1;
        # 0.9999 is unattainable at the Kazaa defaults.
        curve = compute_transient_curve(Protocol.SS, params, _setup_horizon(params))
        assert time_to_consistency(curve, target=0.9999) == math.inf
