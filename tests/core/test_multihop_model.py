"""Tests for the multi-hop analytic model (§III-B, eqs. 9-17): the tree
model on the unary topology ``Topology.chain(N)``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multihop import (
    RECOVERY,
    StateSpaceLimitError,
    Topology,
    TreeModel,
    TreeState,
    expected_link_crossings,
    first_timeout_rate,
    slow_path_recovery_rate,
    tree_state_space,
)
from repro.core.multihop import tree_states
from repro.core.parameters import MultiHopParameters, reservation_defaults
from repro.core.protocols import Protocol
from repro.runtime import solve_multihop_batch


def chain_model(protocol, params):
    return TreeModel(protocol, params, Topology.chain(params.hops))


def chain_states(hops, with_recovery):
    return tree_state_space(Topology.chain(hops), with_recovery)


def hop_state(consistent_hops, slow):
    """The paper's ``(i, s)``: ``i`` consistent hops, hop ``i+1`` slow."""
    return TreeState(tuple(range(1, consistent_hops + 1)), (consistent_hops + 1,) if slow else ())


def solve_all(params):
    return {p: chain_model(p, params).solve() for p in Protocol.multihop_family()}


class TestStateSpace:
    def test_counts(self):
        # N fast states 0..N, N slow states 0..N-1.
        assert len(chain_states(5, with_recovery=False)) == 11
        assert len(chain_states(5, with_recovery=True)) == 12

    def test_paper_order(self):
        # (0,0)..(N,0), then (0,1)..(N-1,1), then F.
        expected = [hop_state(i, False) for i in range(4)] + [hop_state(i, True) for i in range(3)]
        assert list(chain_states(3, with_recovery=True)) == expected + [RECOVERY]

    def test_no_slow_top_state(self):
        states = chain_states(4, with_recovery=False)
        assert hop_state(4, False) in states
        assert hop_state(4, True) not in states

    def test_recovery_present_only_when_requested(self):
        assert RECOVERY in chain_states(3, with_recovery=True)
        assert RECOVERY not in chain_states(3, with_recovery=False)

    def test_invalid_hops_rejected(self):
        with pytest.raises(ValueError):
            chain_states(0, with_recovery=False)

    def test_2047_hops_is_the_longest_direct_chain(self):
        """2N+1 states meet the direct cap of 4096 past 2047 hops; the
        projection refuses before anything is enumerated."""
        assert tree_states.projected_tree_states(Topology.chain(2047)) == 4095
        params = reservation_defaults().replace(hops=2048)
        enumerations = tree_states._enumerated_tree_states.cache_info().misses
        with pytest.raises(StateSpaceLimitError) as raised:
            chain_model(Protocol.SS, params)
        assert raised.value.projected == 4097
        with pytest.raises(StateSpaceLimitError):
            solve_multihop_batch([(Protocol.HS, params)], jobs=1)
        assert tree_states._enumerated_tree_states.cache_info().misses == enumerations


class TestRates:
    def test_slow_path_recovery_ss_decays_with_depth(self, multihop_params):
        shallow = slow_path_recovery_rate(Protocol.SS, multihop_params, 1)
        deep = slow_path_recovery_rate(Protocol.SS, multihop_params, 5)
        assert deep < shallow
        p, r = multihop_params.loss_rate, multihop_params.refresh_interval
        assert shallow == pytest.approx((1 - p) / r)
        assert deep == pytest.approx(((1 - p) ** 5) / r)

    def test_slow_path_recovery_rt_adds_hop_retransmission(self, multihop_params):
        p = multihop_params.loss_rate
        k = multihop_params.retransmission_interval
        ss = slow_path_recovery_rate(Protocol.SS, multihop_params, 3)
        rt = slow_path_recovery_rate(Protocol.SS_RT, multihop_params, 3)
        assert rt == pytest.approx(ss + (1 - p) / k)

    def test_slow_path_recovery_hs_depth_independent(self, multihop_params):
        rates = {
            i: slow_path_recovery_rate(Protocol.HS, multihop_params, i)
            for i in (1, 3, 5)
        }
        assert len(set(rates.values())) == 1

    def test_unsupported_protocol_rejected(self, multihop_params):
        with pytest.raises(ValueError):
            slow_path_recovery_rate(Protocol.SS_ER, multihop_params, 1)
        with pytest.raises(ValueError):
            chain_model(Protocol.SS_RTR, multihop_params)

    def test_first_timeout_rates_telescope(self, multihop_params):
        """Summing eq. 9 over targets gives the total timeout rate."""
        p = multihop_params.loss_rate
        t = multihop_params.timeout_interval
        exponent = t / multihop_params.refresh_interval
        i = 4
        total = sum(first_timeout_rate(multihop_params, j) for j in range(i))
        expected = ((1 - (1 - p) ** i) ** exponent) / t
        assert total == pytest.approx(expected)

    def test_first_timeout_rate_zero_loss(self):
        params = reservation_defaults().replace(loss_rate=0.0, hops=5)
        assert first_timeout_rate(params, 2) == 0.0

    def test_first_timeout_rate_increases_with_distance(self, multihop_params):
        # "State timeout is more likely to happen at the receivers far
        # (more hops away) from the sender" (paper, Fig. 17 discussion):
        # a refresh must cross more lossy links to keep a deep hop alive.
        assert first_timeout_rate(multihop_params, 4) > first_timeout_rate(
            multihop_params, 0
        )


class TestLinkCrossings:
    def test_zero_loss_crosses_all_links(self):
        params = reservation_defaults().replace(loss_rate=0.0, hops=7)
        assert expected_link_crossings(params) == 7.0

    def test_formula(self):
        params = reservation_defaults().replace(loss_rate=0.1, hops=3)
        expected = (1 - 0.9**3) / 0.1
        assert expected_link_crossings(params) == pytest.approx(expected)

    def test_matches_survival_sum(self):
        params = reservation_defaults().replace(loss_rate=0.05, hops=10)
        by_sum = sum((1 - 0.05) ** (k - 1) for k in range(1, 11))
        assert expected_link_crossings(params) == pytest.approx(by_sum)


class TestSolutions:
    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_stationary_sums_to_one(self, protocol, multihop_params):
        solution = chain_model(protocol, multihop_params).solve()
        assert sum(solution.stationary.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_inconsistency_matches_eq12(self, protocol, multihop_params):
        solution = chain_model(protocol, multihop_params).solve()
        top = solution.stationary[hop_state(multihop_params.hops, False)]
        assert solution.inconsistency_ratio == pytest.approx(1.0 - top)

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_hop_profile_monotone(self, protocol, multihop_params):
        profile = chain_model(protocol, multihop_params).solve().hop_profile()
        assert all(b >= a for a, b in zip(profile, profile[1:]))

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_last_hop_equals_overall(self, protocol, multihop_params):
        # Hop N is inconsistent in every state except (N, fast) and the
        # recovery state is counted in both; so hop-N inconsistency
        # equals the overall ratio.
        solution = chain_model(protocol, multihop_params).solve()
        assert solution.node_inconsistency(multihop_params.hops) == pytest.approx(
            solution.inconsistency_ratio
        )

    def test_hop_bounds_checked(self, multihop_params):
        solution = chain_model(Protocol.SS, multihop_params).solve()
        with pytest.raises(ValueError):
            solution.node_inconsistency(0)
        with pytest.raises(ValueError):
            solution.node_inconsistency(multihop_params.hops + 1)

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_message_rate_positive(self, protocol, multihop_params):
        solution = chain_model(protocol, multihop_params).solve()
        assert solution.message_rate > 0.0

    def test_hs_breakdown_has_no_refreshes(self, multihop_params):
        solution = chain_model(Protocol.HS, multihop_params).solve()
        assert solution.message_breakdown["refresh_hops"] == 0.0
        assert solution.message_breakdown["recovery_traffic"] >= 0.0

    def test_ss_breakdown_has_no_acks(self, multihop_params):
        solution = chain_model(Protocol.SS, multihop_params).solve()
        assert solution.message_breakdown["acks"] == 0.0
        assert solution.message_breakdown["retransmissions"] == 0.0
        assert solution.message_breakdown["refresh_hops"] > 0.0

    def test_integrated_cost(self, multihop_params):
        solution = chain_model(Protocol.SS, multihop_params).solve()
        expected = 10.0 * solution.inconsistency_ratio + solution.message_rate
        assert solution.integrated_cost(10.0) == pytest.approx(expected)
        with pytest.raises(ValueError):
            solution.integrated_cost(-2.0)


class TestPaperClaims:
    """Qualitative multi-hop findings (Figs. 17-18)."""

    def test_inconsistency_increases_with_hops(self):
        base = reservation_defaults()
        for protocol in Protocol.multihop_family():
            values = [
                chain_model(protocol, base.replace(hops=n)).solve().inconsistency_ratio
                for n in (2, 5, 10, 20)
            ]
            assert values == sorted(values)

    def test_message_rate_increases_with_hops(self):
        base = reservation_defaults()
        for protocol in Protocol.multihop_family():
            values = [
                chain_model(protocol, base.replace(hops=n)).solve().message_rate
                for n in (2, 5, 10, 20)
            ]
            assert values == sorted(values)

    def test_rt_matches_hs_consistency(self):
        solutions = solve_all(reservation_defaults())
        rt = solutions[Protocol.SS_RT].inconsistency_ratio
        hs = solutions[Protocol.HS].inconsistency_ratio
        assert rt == pytest.approx(hs, rel=0.15)
        assert hs <= rt  # HS slightly ahead (Fig. 17 discussion)

    def test_ss_most_sensitive_to_path_length(self):
        base = reservation_defaults()
        growth = {}
        for protocol in Protocol.multihop_family():
            short = chain_model(protocol, base.replace(hops=2)).solve()
            long = chain_model(protocol, base.replace(hops=20)).solve()
            growth[protocol] = long.inconsistency_ratio - short.inconsistency_ratio
        assert growth[Protocol.SS] > growth[Protocol.SS_RT]
        assert growth[Protocol.SS] > growth[Protocol.HS]

    def test_rt_overhead_close_to_ss(self):
        solutions = solve_all(reservation_defaults())
        ss = solutions[Protocol.SS].message_rate
        rt = solutions[Protocol.SS_RT].message_rate
        assert rt > ss  # reliability costs something...
        assert (rt - ss) / ss < 0.25  # ...but little (Fig. 18b)

    def test_hs_cheapest(self):
        solutions = solve_all(reservation_defaults())
        assert solutions[Protocol.HS].message_rate < solutions[Protocol.SS].message_rate

    @given(
        hops=st.integers(1, 12),
        loss=st.floats(0.0, 0.2),
        refresh=st.floats(1.0, 30.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_model_always_solvable(self, hops, loss, refresh):
        params = MultiHopParameters(hops=hops, loss_rate=loss).with_coupled_timers(refresh)
        for protocol in Protocol.multihop_family():
            solution = chain_model(protocol, params).solve()
            assert 0.0 <= solution.inconsistency_ratio <= 1.0
            assert solution.message_rate >= 0.0
