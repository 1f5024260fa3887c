"""Shape checks for every reproduced figure.

Each test asserts a claim the paper makes about the corresponding
figure — who wins, by roughly what factor, where crossovers fall.
This module is the machine-checked record of paper-vs-measured
agreement; ``repro-signaling report`` prints the shorter claims
registry of ``repro.experiments.claims``.  Analytic experiments run at full
resolution (they are cheap); the simulation-backed figures (11, 12)
are covered separately in test_validation_figures.py.
"""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.experiments import run_scenario

SS, SS_ER, SS_RT, SS_RTR, HS = (p.value for p in Protocol)


@pytest.fixture(scope="module")
def fig4():
    return run_scenario("fig4")


@pytest.fixture(scope="module")
def fig5():
    return run_scenario("fig5")


@pytest.fixture(scope="module")
def fig6():
    return run_scenario("fig6")


@pytest.fixture(scope="module")
def fig7():
    return run_scenario("fig7")


@pytest.fixture(scope="module")
def fig8():
    return run_scenario("fig8")


@pytest.fixture(scope="module")
def fig9():
    return run_scenario("fig9")


@pytest.fixture(scope="module")
def fig10():
    return run_scenario("fig10")


@pytest.fixture(scope="module")
def fig17():
    return run_scenario("fig17")


@pytest.fixture(scope="module")
def fig18():
    return run_scenario("fig18")


@pytest.fixture(scope="module")
def fig19():
    return run_scenario("fig19")


def decreasing(values, tolerance=0.0):
    return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def increasing(values, tolerance=0.0):
    return all(b >= a - tolerance for a, b in zip(values, values[1:]))


class TestTable1:
    def test_columns_cover_all_protocols(self):
        result = run_scenario("table1")
        assert result.panel("transition rates").labels() == tuple(
            p.value for p in Protocol
        )

    def test_hs_never_uses_soft_timers(self):
        result = run_scenario("table1")
        panel = result.panel("transition rates")
        hs = panel.series_by_label(HS)
        ss = panel.series_by_label(SS)
        # Row 2 (slow-path recovery): HS uses K, SS uses R -> different.
        assert hs.y[2] != ss.y[2]


class TestFig4:
    def test_inconsistency_decreases_with_session_length(self, fig4):
        for series in fig4.panel("a: inconsistency ratio").series:
            assert decreasing(series.y, tolerance=1e-9), series.label

    def test_message_rate_decreases_with_session_length(self, fig4):
        for series in fig4.panel("b: signaling message rate").series:
            assert decreasing(series.y, tolerance=1e-9), series.label

    def test_er_gain_grows_as_sessions_shrink(self, fig4):
        panel = fig4.panel("a: inconsistency ratio")
        ss = panel.series_by_label(SS)
        er = panel.series_by_label(SS_ER)
        gain_short = ss.y[0] / er.y[0]  # shortest sessions
        gain_long = ss.y[-1] / er.y[-1]  # longest sessions
        assert gain_short > gain_long
        assert gain_short > 3.0  # substantial at high churn

    def test_er_overhead_negligible_for_long_sessions(self, fig4):
        panel = fig4.panel("b: signaling message rate")
        ss = panel.series_by_label(SS)
        er = panel.series_by_label(SS_ER)
        assert er.y[-1] == pytest.approx(ss.y[-1], rel=0.02)

    def test_long_sessions_split_by_trigger_reliability(self, fig4):
        panel = fig4.panel("a: inconsistency ratio")
        reliable = [SS_RT, SS_RTR, HS]
        unreliable = [SS, SS_ER]
        worst_reliable = max(panel.series_by_label(s).y[-1] for s in reliable)
        best_unreliable = min(panel.series_by_label(s).y[-1] for s in unreliable)
        assert worst_reliable < best_unreliable

    def test_short_sessions_split_by_removal_mechanism(self, fig4):
        panel = fig4.panel("a: inconsistency ratio")
        assert panel.series_by_label(SS).y[0] == pytest.approx(
            panel.series_by_label(SS_RT).y[0], rel=0.25
        )
        assert panel.series_by_label(SS_ER).y[0] < 0.3 * panel.series_by_label(SS).y[0]
        assert (
            panel.series_by_label(SS_RTR).y[0] < 0.5 * panel.series_by_label(SS_ER).y[0]
        )

    def test_rtr_tracks_hs_everywhere(self, fig4):
        panel = fig4.panel("a: inconsistency ratio")
        rtr = panel.series_by_label(SS_RTR)
        hs = panel.series_by_label(HS)
        for r, h in zip(rtr.y, hs.y):
            assert r == pytest.approx(h, rel=0.25)

    def test_rtr_sometimes_beats_hs(self, fig4):
        panel = fig4.panel("a: inconsistency ratio")
        rtr = panel.series_by_label(SS_RTR)
        hs = panel.series_by_label(HS)
        assert any(r < h for r, h in zip(rtr.y, hs.y))


class TestFig5:
    def test_inconsistency_grows_with_loss(self, fig5):
        for series in fig5.panel("a: vs loss rate").series:
            assert increasing(series.y, tolerance=1e-9), series.label

    def test_reliability_pays_at_modest_loss(self, fig5):
        panel = fig5.panel("a: vs loss rate")
        x_modest = panel.series[0].x[2]  # ~5% loss
        assert 0.03 <= x_modest <= 0.08
        ss = panel.series_by_label(SS).value_at(x_modest)
        rt = panel.series_by_label(SS_RT).value_at(x_modest)
        assert rt < ss

    def test_zero_loss_ranks_by_removal_latency(self, fig5):
        panel = fig5.panel("a: vs loss rate")
        # At p=0 the only inconsistency left is propagation + orphan wait;
        # protocols with explicit removal are strictly better.
        assert panel.series_by_label(SS_ER).y[0] < panel.series_by_label(SS).y[0]

    def test_inconsistency_roughly_linear_in_delay(self, fig5):
        panel = fig5.panel("b: vs channel delay")
        for series in panel.series:
            xs, ys = series.x, series.y
            assert increasing(ys, tolerance=1e-9), series.label
            # Secant slopes of a straight line stay within a small band.
            slopes = [
                (y2 - y1) / (x2 - x1)
                for (x1, y1), (x2, y2) in zip(zip(xs, ys), zip(xs[1:], ys[1:]))
            ]
            assert max(slopes) < 3.0 * min(slopes), series.label

    def test_reliable_protocols_have_steeper_delay_slope(self, fig5):
        panel = fig5.panel("b: vs channel delay")

        def overall_slope(label):
            series = panel.series_by_label(label)
            return (series.y[-1] - series.y[0]) / (series.x[-1] - series.x[0])

        assert overall_slope(HS) > overall_slope(SS_ER)


class TestFig6:
    def test_fundamental_tradeoff_short_r_consistent_long_r_cheap(self, fig6):
        """Fig. 6's point: short R buys consistency, long R buys economy."""
        inconsistency = fig6.panel("a: inconsistency ratio")
        for label in (SS, SS_ER, SS_RT, SS_RTR):
            series = inconsistency.series_by_label(label)
            assert series.y[0] < series.y[-1], label

    def test_message_rate_falls_with_refresh_timer(self, fig6):
        panel = fig6.panel("b: signaling message rate")
        for label in (SS, SS_ER, SS_RT, SS_RTR):
            assert decreasing(panel.series_by_label(label).y, tolerance=1e-9), label

    def test_hs_flat_in_refresh_timer(self, fig6):
        for panel_name in ("a: inconsistency ratio", "b: signaling message rate"):
            hs = fig6.panel(panel_name).series_by_label(HS)
            assert max(hs.y) == pytest.approx(min(hs.y), rel=1e-9)

    def test_small_r_overhead_explodes(self, fig6):
        panel = fig6.panel("b: signaling message rate")
        ss = panel.series_by_label(SS)
        assert ss.y[0] > 30 * ss.y[-1]


class TestFig7:
    def test_ss_optimum_sensitive(self, fig7):
        series = fig7.panel("integrated cost").series_by_label(SS)
        best = min(series.y)
        assert series.y[0] > 5 * best  # short-R side blows up
        assert series.y[-1] > 2 * best  # long-R side degrades too

    def test_ss_er_flatter_on_long_side(self, fig7):
        panel = fig7.panel("integrated cost")
        ss = panel.series_by_label(SS)
        er = panel.series_by_label(SS_ER)
        assert er.y[-1] / min(er.y) < 0.5 * (ss.y[-1] / min(ss.y))

    def test_rtr_prefers_long_timers(self, fig7):
        series = fig7.panel("integrated cost").series_by_label(SS_RTR)
        best = min(range(len(series.y)), key=lambda i: series.y[i])
        assert series.x[best] > 20.0

    def test_rtr_with_long_timer_comparable_to_hs(self, fig7):
        panel = fig7.panel("integrated cost")
        rtr_best = min(panel.series_by_label(SS_RTR).y)
        hs = panel.series_by_label(HS).y[0]
        assert rtr_best == pytest.approx(hs, rel=0.15)


class TestFig8:
    def test_all_soft_protocols_poor_when_timeout_below_refresh(self, fig8):
        # "when the state-timeout timer is shorter than the refresh
        # timer, all soft-state based approaches perform poorly".
        panel = fig8.panel("a: vs state-timeout timer")
        for label in (SS, SS_ER, SS_RT, SS_RTR):
            series = panel.series_by_label(label)
            assert series.y[0] > 10 * min(series.y), label

    def test_rtr_improves_with_longer_timeout(self, fig8):
        panel = fig8.panel("a: vs state-timeout timer")
        series = panel.series_by_label(SS_RTR)
        usable = [(x, y) for x, y in zip(series.x, series.y) if x >= 15.0]
        values = [y for _, y in usable]
        assert decreasing(values, tolerance=1e-7)

    def test_ss_has_interior_timeout_optimum_near_2r(self, fig8):
        # SS/SS+ER "do best when the state-timeout timer is
        # approximately twice the length of the refresh timer" (R = 5s).
        panel = fig8.panel("a: vs state-timeout timer")
        for label in (SS, SS_ER):
            series = panel.series_by_label(label)
            best = min(range(len(series.y)), key=lambda i: series.y[i])
            assert 0 < best < len(series.y) - 1, label
            assert 5.0 < series.x[best] < 20.0, label

    def test_rt_optimum_just_above_refresh_timer(self, fig8):
        # SS+RT "works best with a timeout timer value that is just
        # slightly larger than that of the state-refresh timer".
        panel = fig8.panel("a: vs state-timeout timer")
        series = panel.series_by_label(SS_RT)
        best = min(range(len(series.y)), key=lambda i: series.y[i])
        assert 5.0 < series.x[best] < 10.0

    def test_hs_most_sensitive_to_retransmission_timer(self, fig8):
        panel = fig8.panel("b: vs retransmission timer")

        def spread(label):
            series = panel.series_by_label(label)
            return max(series.y) - min(series.y)

        assert spread(HS) > spread(SS_RTR)
        assert spread(HS) > spread(SS_RT)

    def test_ss_flat_in_retransmission_timer(self, fig8):
        panel = fig8.panel("b: vs retransmission timer")
        for label in (SS, SS_ER):
            series = panel.series_by_label(label)
            assert max(series.y) == pytest.approx(min(series.y), rel=1e-9), label


class TestFig9:
    def test_hs_is_single_point(self, fig9):
        hs = fig9.panel("tradeoff").series_by_label(HS)
        assert len(hs.x) == 1

    def test_soft_state_curves_trade_off(self, fig9):
        panel = fig9.panel("tradeoff")
        for label in (SS, SS_ER, SS_RT):
            series = panel.series_by_label(label)
            spread = max(series.x) / min(series.x)
            assert spread > 5.0, label

    def test_rtr_consistency_insensitive_to_refresh_rate(self, fig9):
        panel = fig9.panel("tradeoff")
        rtr = panel.series_by_label(SS_RTR)
        ss = panel.series_by_label(SS)
        rtr_spread = max(rtr.x) / min(rtr.x)
        ss_spread = max(ss.x) / min(ss.x)
        assert rtr_spread < 0.1 * ss_spread


class TestFig10:
    def test_ss_cheapest_at_loose_consistency(self, fig10):
        panel = fig10.panel("a: varying update rate")

        def cost_at_inconsistency(label, target):
            series = panel.series_by_label(label)
            candidates = [
                y for x, y in zip(series.x, series.y) if abs(x - target) / target < 0.5
            ]
            return min(candidates) if candidates else None

        loose = 0.02
        ss_cost = cost_at_inconsistency(SS, loose)
        hs_cost = cost_at_inconsistency(HS, loose)
        if ss_cost is not None and hs_cost is not None:
            assert ss_cost < hs_cost

    def test_hs_reaches_tightest_consistency(self, fig10):
        panel = fig10.panel("a: varying update rate")
        best = {s.label: min(s.x) for s in panel.series}
        assert best[HS] <= min(best[SS], best[SS_ER], best[SS_RT])

    def test_delay_curves_cover_smaller_overhead_range(self, fig10):
        # Paper: "the tradeoff curves are not sensitive to changing
        # signaling channel delays" — overhead barely moves with Delta.
        panel = fig10.panel("b: varying channel delay")
        for label in (SS, SS_ER):
            series = panel.series_by_label(label)
            assert max(series.y) / min(series.y) < 1.5, label


class TestFig17:
    def test_inconsistency_grows_with_hop_index(self, fig17):
        for series in fig17.panel("per-hop inconsistency").series:
            assert increasing(series.y, tolerance=1e-12), series.label

    def test_growth_approximately_linear(self, fig17):
        panel = fig17.panel("per-hop inconsistency")
        for series in panel.series:
            half = series.y[9] / series.y[19]  # hop 10 vs hop 20
            assert 0.3 < half < 0.7, series.label

    def test_rt_close_to_hs_far_from_ss(self, fig17):
        panel = fig17.panel("per-hop inconsistency")
        last = {s.label: s.y[-1] for s in panel.series}
        assert last[SS_RT] == pytest.approx(last[HS], rel=0.15)
        assert last[SS] > 4 * last[SS_RT]

    def test_hs_slightly_ahead_at_far_hops(self, fig17):
        panel = fig17.panel("per-hop inconsistency")
        assert (
            panel.series_by_label(HS).y[-1] < panel.series_by_label(SS_RT).y[-1]
        )


class TestFig18:
    def test_both_metrics_monotone_in_hops(self, fig18):
        for panel_name in ("a: inconsistency ratio", "b: signaling message rate"):
            for series in fig18.panel(panel_name).series:
                assert increasing(series.y, tolerance=1e-12), (panel_name, series.label)

    def test_ss_most_sensitive_to_hops(self, fig18):
        panel = fig18.panel("a: inconsistency ratio")
        growth = {s.label: s.y[-1] - s.y[0] for s in panel.series}
        assert growth[SS] > 3 * growth[SS_RT]

    def test_rt_overhead_increment_small(self, fig18):
        panel = fig18.panel("b: signaling message rate")
        ss = panel.series_by_label(SS).y[-1]
        rt = panel.series_by_label(SS_RT).y[-1]
        assert rt > ss
        assert (rt - ss) / ss < 0.25

    def test_hs_overhead_far_below_soft_state(self, fig18):
        panel = fig18.panel("b: signaling message rate")
        assert panel.series_by_label(HS).y[-1] < 0.3 * panel.series_by_label(SS).y[-1]


class TestFig19:
    def test_ss_inconsistency_vee_shape(self, fig19):
        """SS improves while R is tiny, then degrades sharply (Fig. 19a)."""
        series = fig19.panel("a: inconsistency ratio").series_by_label(SS)
        best = min(range(len(series.y)), key=lambda i: series.y[i])
        assert series.x[best] < 2.0  # optimum at small R
        assert series.y[-1] > 5 * series.y[best]  # sharp degradation after

    def test_rt_optimum_at_larger_r_than_ss(self, fig19):
        panel = fig19.panel("a: inconsistency ratio")
        ss = panel.series_by_label(SS)
        rt = panel.series_by_label(SS_RT)
        ss_best = ss.x[min(range(len(ss.y)), key=lambda i: ss.y[i])]
        rt_best = rt.x[min(range(len(rt.y)), key=lambda i: rt.y[i])]
        assert rt_best > ss_best

    def test_overhead_decreases_with_r(self, fig19):
        panel = fig19.panel("b: signaling message rate")
        for label in (SS, SS_RT):
            assert decreasing(panel.series_by_label(label).y, tolerance=1e-9), label

    def test_hs_flat(self, fig19):
        for panel_name in ("a: inconsistency ratio", "b: signaling message rate"):
            hs = fig19.panel(panel_name).series_by_label(HS)
            assert max(hs.y) == pytest.approx(min(hs.y), rel=1e-9)
