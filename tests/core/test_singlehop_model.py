"""Tests for the single-hop model's metrics (eqs. 1-8)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import kazaa_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel, SingleHopState, solve_all
from repro.core.singlehop.states import INCONSISTENT_STATES

S = SingleHopState


class TestSolutionBasics:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_stationary_sums_to_one(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        assert sum(solution.stationary.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_is_one_minus_consistent(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        assert solution.inconsistency_ratio == pytest.approx(
            1.0 - solution.stationary[S.CONSISTENT]
        )

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_eq1_sum_of_inconsistent_states(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        total = sum(solution.occupancy(state) for state in INCONSISTENT_STATES)
        assert solution.inconsistency_ratio == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_in_unit_interval(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        assert 0.0 <= solution.inconsistency_ratio <= 1.0

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_lifetime_at_least_mean_session(self, protocol, params):
        # The receiver cannot discard state before the sender removes
        # it (false removals are rare at the defaults), so L >~ 1/mu_r.
        solution = SingleHopModel(protocol, params).solve()
        assert solution.expected_receiver_lifetime > 0.9 * params.mean_session_length

    def test_ss_lifetime_includes_timeout_tail(self, params):
        # Pure SS holds orphaned state for ~T after sender removal.
        solution = SingleHopModel(Protocol.SS, params).solve()
        assert solution.expected_receiver_lifetime > params.mean_session_length

    def test_zero_removal_rate_rejected(self, params):
        with pytest.raises(ValueError):
            SingleHopModel(Protocol.SS, params.replace(removal_rate=0.0))

    def test_occupancy_missing_state_is_zero(self, params):
        solution = SingleHopModel(Protocol.SS, params).solve()
        assert solution.occupancy(S.S01_SLOW) == 0.0  # state absent in SS

    def test_eq1_states_are_all_but_consistent_and_absorbed(self):
        assert len(set(INCONSISTENT_STATES)) == len(INCONSISTENT_STATES)
        assert set(INCONSISTENT_STATES) == set(S) - {S.CONSISTENT, S.ABSORBED}


class TestMessageMetrics:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_message_rate_positive(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        assert solution.message_rate > 0.0

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_total_messages_consistent_with_rate(self, protocol, params):
        solution = SingleHopModel(protocol, params).solve()
        assert solution.total_messages == pytest.approx(
            solution.expected_receiver_lifetime * solution.message_rate
        )

    def test_unused_components_zero_for_ss(self, params):
        breakdown = SingleHopModel(Protocol.SS, params).solve().message_breakdown
        assert breakdown["removals"] == 0.0
        assert breakdown["trigger_retransmissions"] == 0.0
        assert breakdown["trigger_acks"] == 0.0
        assert breakdown["removal_notifications"] == 0.0
        assert breakdown["removal_retransmissions"] == 0.0
        assert breakdown["removal_acks"] == 0.0
        assert breakdown["triggers"] > 0.0
        assert breakdown["refreshes"] > 0.0

    def test_hs_has_no_refreshes(self, params):
        breakdown = SingleHopModel(Protocol.HS, params).solve().message_breakdown
        assert breakdown["refreshes"] == 0.0
        assert breakdown["trigger_acks"] > 0.0
        assert breakdown["removals"] > 0.0

    def test_refresh_component_dominates_ss_at_defaults(self, params):
        # With R = 5s and updates every 20s, refreshes are the bulk of
        # SS's signaling (the paper's Fig. 4b shows SS ~ 0.25 = ~1/R).
        breakdown = SingleHopModel(Protocol.SS, params).solve().message_breakdown
        assert breakdown["refreshes"] > 0.5 * sum(breakdown.values())

    def test_integrated_cost_formula(self, params):
        solution = SingleHopModel(Protocol.SS_ER, params).solve()
        expected = 10.0 * solution.inconsistency_ratio + solution.normalized_message_rate
        assert solution.integrated_cost(10.0) == pytest.approx(expected)

    def test_integrated_cost_negative_weight_rejected(self, params):
        solution = SingleHopModel(Protocol.SS, params).solve()
        with pytest.raises(ValueError):
            solution.integrated_cost(-1.0)


class TestPaperOrderings:
    """Qualitative relations the paper derives from the model (§III-A.3)."""

    def test_explicit_removal_improves_consistency(self, params):
        solutions = solve_all(params)
        assert (
            solutions[Protocol.SS_ER].inconsistency_ratio
            < solutions[Protocol.SS].inconsistency_ratio
        )

    def test_reliable_removal_improves_on_explicit_removal(self, params):
        solutions = solve_all(params)
        assert (
            solutions[Protocol.SS_RTR].inconsistency_ratio
            < solutions[Protocol.SS_ER].inconsistency_ratio
        )

    def test_ss_rtr_comparable_to_hs(self, params):
        solutions = solve_all(params)
        rtr = solutions[Protocol.SS_RTR].inconsistency_ratio
        hs = solutions[Protocol.HS].inconsistency_ratio
        assert rtr == pytest.approx(hs, rel=0.10)

    def test_hs_cheapest_in_messages(self, params):
        solutions = solve_all(params)
        hs_rate = solutions[Protocol.HS].normalized_message_rate
        for protocol in Protocol.soft_state_family():
            assert hs_rate < solutions[protocol].normalized_message_rate

    def test_reliability_costs_messages(self, params):
        solutions = solve_all(params)
        assert (
            solutions[Protocol.SS_RT].normalized_message_rate
            > solutions[Protocol.SS].normalized_message_rate
        )

    def test_explicit_removal_nearly_free_for_long_sessions(self, params):
        solutions = solve_all(params)
        ss = solutions[Protocol.SS].normalized_message_rate
        er = solutions[Protocol.SS_ER].normalized_message_rate
        assert (er - ss) / ss < 0.02

    def test_short_sessions_group_by_removal_mechanism(self, params):
        short = params.replace(removal_rate=1.0 / 30.0)
        solutions = solve_all(short)
        inconsistency = {p: solutions[p].inconsistency_ratio for p in Protocol}
        # Without explicit removal: SS ~ SS+RT, both far above SS+ER.
        assert inconsistency[Protocol.SS] == pytest.approx(
            inconsistency[Protocol.SS_RT], rel=0.15
        )
        assert inconsistency[Protocol.SS_ER] < 0.25 * inconsistency[Protocol.SS]
        # With reliable removal: SS+RTR ~ HS, below SS+ER.
        assert inconsistency[Protocol.SS_RTR] < inconsistency[Protocol.SS_ER]

    def test_long_sessions_group_by_trigger_reliability(self, params):
        long = params.replace(removal_rate=1.0 / 50_000.0)
        solutions = solve_all(long)
        inconsistency = {p: solutions[p].inconsistency_ratio for p in Protocol}
        reliable = {Protocol.SS_RT, Protocol.SS_RTR, Protocol.HS}
        worst_reliable = max(inconsistency[p] for p in reliable)
        best_unreliable = min(inconsistency[p] for p in Protocol if p not in reliable)
        assert worst_reliable < best_unreliable


class TestParameterResponses:
    @given(loss=st.floats(0.0, 0.4))
    @settings(max_examples=25, deadline=None)
    def test_inconsistency_valid_across_loss(self, loss):
        params = kazaa_defaults().replace(loss_rate=loss)
        for protocol in Protocol:
            solution = SingleHopModel(protocol, params).solve()
            assert 0.0 <= solution.inconsistency_ratio <= 1.0

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_increases_with_loss(self, protocol, params):
        low = SingleHopModel(protocol, params.replace(loss_rate=0.01)).solve()
        high = SingleHopModel(protocol, params.replace(loss_rate=0.25)).solve()
        assert high.inconsistency_ratio > low.inconsistency_ratio

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_increases_with_delay(self, protocol, params):
        low = SingleHopModel(protocol, params.replace(delay=0.01)).solve()
        high = SingleHopModel(
            protocol, params.replace(delay=0.5, retransmission_interval=2.0)
        ).solve()
        assert high.inconsistency_ratio > low.inconsistency_ratio

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_both_metrics_decrease_with_session_length(self, protocol, params):
        short = SingleHopModel(protocol, params.replace(removal_rate=1 / 30)).solve()
        long = SingleHopModel(protocol, params.replace(removal_rate=1 / 3000)).solve()
        assert long.inconsistency_ratio < short.inconsistency_ratio
        assert long.normalized_message_rate < short.normalized_message_rate

    @given(
        loss=st.floats(0.0, 0.3),
        session=st.floats(20.0, 20_000.0),
        refresh=st.floats(0.5, 60.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_model_always_solvable(self, loss, session, refresh):
        params = kazaa_defaults().replace(
            loss_rate=loss, removal_rate=1.0 / session
        ).with_coupled_timers(refresh)
        for protocol in Protocol:
            solution = SingleHopModel(protocol, params).solve()
            assert 0.0 <= solution.inconsistency_ratio <= 1.0
            assert solution.message_rate >= 0.0
            assert solution.expected_receiver_lifetime > 0.0
