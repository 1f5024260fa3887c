"""Tests for the CTMC toolkit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import (
    ContinuousTimeMarkovChain,
    batched_absorption_times_dense,
    batched_stationary_dense,
)


def two_state_chain(up_rate=2.0, down_rate=3.0):
    """Classic on/off chain with known stationary distribution."""
    return ContinuousTimeMarkovChain(
        ["on", "off"],
        {("on", "off"): down_rate, ("off", "on"): up_rate},
    )


class TestConstruction:
    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain([], {})

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain(["a", "a"], {})

    def test_unknown_state_in_rates_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain(["a"], {("a", "b"): 1.0})

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain(["a", "b"], {("a", "a"): 1.0})

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_invalid_rate_rejected(self, rate):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): rate})

    def test_zero_rates_dropped(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 0.0})
        assert chain.rates == {}
        assert chain.rate("a", "b") == 0.0


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self):
        chain = two_state_chain()
        q = chain.generator_matrix()
        assert np.allclose(q.sum(axis=1), 0.0)

    def test_off_diagonal_rates(self):
        chain = two_state_chain(up_rate=2.0, down_rate=3.0)
        q = chain.generator_matrix()
        assert q[0, 1] == 3.0  # on -> off
        assert q[1, 0] == 2.0  # off -> on
        assert q[0, 0] == -3.0


class TestStationaryDistribution:
    def test_two_state_known_result(self):
        chain = two_state_chain(up_rate=2.0, down_rate=3.0)
        pi = chain.stationary_distribution()
        # pi_on * 3 = pi_off * 2 -> pi_on = 2/5
        assert pi["on"] == pytest.approx(0.4)
        assert pi["off"] == pytest.approx(0.6)

    def test_sums_to_one(self):
        pi = two_state_chain().stationary_distribution()
        assert sum(pi.values()) == pytest.approx(1.0)

    def test_birth_death_chain(self):
        # M/M/1/2 queue: lambda = 1, mu = 2 -> pi_k ~ (1/2)^k
        chain = ContinuousTimeMarkovChain(
            [0, 1, 2],
            {(0, 1): 1.0, (1, 2): 1.0, (1, 0): 2.0, (2, 1): 2.0},
        )
        pi = chain.stationary_distribution()
        total = 1 + 0.5 + 0.25
        assert pi[0] == pytest.approx(1 / total)
        assert pi[1] == pytest.approx(0.5 / total)
        assert pi[2] == pytest.approx(0.25 / total)

    def test_transient_state_gets_zero(self):
        chain = ContinuousTimeMarkovChain(
            ["t", "a", "b"],
            {("t", "a"): 1.0, ("a", "b"): 1.0, ("b", "a"): 1.0},
        )
        pi = chain.stationary_distribution()
        assert pi["t"] == pytest.approx(0.0, abs=1e-12)
        assert pi["a"] == pytest.approx(0.5)

    def test_disconnected_chain_raises(self):
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c", "d"],
            {("a", "b"): 1.0, ("b", "a"): 1.0, ("c", "d"): 1.0, ("d", "c"): 1.0},
        )
        with pytest.raises(ValueError):
            chain.stationary_distribution()

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_irreducible_chain_properties(self, seed, n):
        rng = np.random.default_rng(seed)
        states = list(range(n))
        rates = {}
        # A ring guarantees irreducibility; extra random edges on top.
        for i in states:
            rates[(i, (i + 1) % n)] = float(rng.uniform(0.1, 5.0))
        for _ in range(n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                rates[(int(i), int(j))] = float(rng.uniform(0.1, 5.0))
        chain = ContinuousTimeMarkovChain(states, rates)
        pi = chain.stationary_distribution()
        assert sum(pi.values()) == pytest.approx(1.0)
        assert all(p >= 0.0 for p in pi.values())
        # Verify pi Q = 0 numerically.
        q = chain.generator_matrix()
        vec = np.array([pi[s] for s in states])
        assert np.allclose(vec @ q, 0.0, atol=1e-8)


class TestAbsorption:
    def test_single_step_absorption_time(self):
        chain = ContinuousTimeMarkovChain(["t", "a"], {("t", "a"): 4.0})
        assert chain.mean_time_to_absorption("t", ["a"]) == pytest.approx(0.25)

    def test_two_step_chain(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "m", "a"], {("s", "m"): 1.0, ("m", "a"): 2.0}
        )
        assert chain.mean_time_to_absorption("s", ["a"]) == pytest.approx(1.5)

    def test_start_in_absorbing_state_is_zero(self):
        chain = ContinuousTimeMarkovChain(["t", "a"], {("t", "a"): 1.0})
        assert chain.mean_time_to_absorption("a", ["a"]) == 0.0

    def test_geometric_retries(self):
        # From s: rate 1 to a, rate 3 back to s via loop state.
        chain = ContinuousTimeMarkovChain(
            ["s", "loop", "a"],
            {("s", "a"): 1.0, ("s", "loop"): 3.0, ("loop", "s"): 2.0},
        )
        # E[T_s] = 1/4 + (3/4)(E[T_loop] + ...); solve: t_s = 0.25 + 0.75*(0.5 + t_s)
        expected = (0.25 + 0.75 * 0.5) / 0.25
        assert chain.mean_time_to_absorption("s", ["a"]) == pytest.approx(expected)

    def test_unreachable_absorption_raises(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "o", "a"], {("s", "o"): 1.0, ("o", "s"): 1.0}
        )
        with pytest.raises(ValueError):
            chain.mean_time_to_absorption("s", ["a"])

    def test_no_absorbing_states_rejected(self):
        chain = two_state_chain()
        with pytest.raises(ValueError):
            chain.mean_time_to_absorption("on", [])

    def test_unknown_absorbing_state_rejected(self):
        chain = two_state_chain()
        with pytest.raises(ValueError):
            chain.mean_time_to_absorption("on", ["nope"])

    def test_competing_exits_share_one_holding_time(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "a", "b"], {("s", "a"): 1.5, ("s", "b"): 0.5}
        )
        assert chain.mean_time_to_absorption("s", ["a", "b"]) == pytest.approx(0.5)

    def test_exit_into_a_trap_makes_absorption_uncertain(self):
        # "b" has no way out, so from "s" the chain reaches "a" only
        # with probability 3/4.
        chain = ContinuousTimeMarkovChain(
            ["s", "a", "b"], {("s", "a"): 1.5, ("s", "b"): 0.5}
        )
        with pytest.raises(ValueError):
            chain.mean_time_to_absorption("s", ["a"])


class TestMergeStates:
    def test_merge_redirects_incoming(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "x", "end"],
            {("s", "x"): 1.0, ("x", "end"): 2.0},
        )
        merged = chain.merge_states("end", "s")
        assert "end" not in merged.states
        assert merged.rate("x", "s") == 2.0

    def test_merge_drops_outgoing_of_merged(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "end"],
            {("s", "end"): 1.0, ("end", "s"): 5.0},
        )
        merged = chain.merge_states("end", "s")
        assert merged.rates == {}

    def test_merge_preserves_total_rate_on_parallel_edges(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "t", "end"],
            {("t", "end"): 1.0, ("t", "s"): 2.0, ("s", "t"): 1.0},
        )
        merged = chain.merge_states("end", "s")
        assert merged.rate("t", "s") == pytest.approx(3.0)

    def test_merge_into_self_rejected(self):
        with pytest.raises(ValueError):
            two_state_chain().merge_states("on", "on")

    def test_merge_unknown_state_rejected(self):
        with pytest.raises(ValueError):
            two_state_chain().merge_states("zzz", "on")

    def test_merged_chain_is_recurrent(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "x", "end"],
            {("s", "x"): 1.0, ("x", "end"): 1.0},
        )
        pi = chain.merge_states("end", "s").stationary_distribution()
        assert pi["s"] == pytest.approx(0.5)
        assert pi["x"] == pytest.approx(0.5)


class TestUtilities:
    def test_holding_time(self):
        chain = two_state_chain(up_rate=2.0, down_rate=4.0)
        assert chain.holding_time("on") == pytest.approx(0.25)
        assert chain.holding_time("off") == pytest.approx(0.5)

    def test_holding_time_no_exit_is_inf(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 1.0})
        assert chain.holding_time("b") == float("inf")

    def test_describe_lists_transitions(self):
        text = two_state_chain().describe()
        assert "2 states" in text
        assert "'on'" in text and "'off'" in text


def birth_death_chain(rates=(1.0, 2.0, 0.5, 3.0)):
    """A three-state birth-death chain (rates up, up, down, down)."""
    up1, up2, down1, down2 = rates
    return ContinuousTimeMarkovChain(
        ["a", "b", "c"],
        {("a", "b"): up1, ("b", "c"): up2, ("b", "a"): down1, ("c", "b"): down2},
    )


class TestBatchedKernels:
    """The stacked LAPACK kernels every dense solve runs through."""

    def test_bad_row_flagged_and_good_rows_bitwise(self):
        first = birth_death_chain()
        last = birth_death_chain((0.3, 4.0, 2.5, 0.7))
        broken = first.generator_matrix()
        broken[0, 0] -= 1.0  # row 0 no longer sums to zero: not a generator
        stack = np.stack([first.generator_matrix(), broken, last.generator_matrix()])
        pi, bad = batched_stationary_dense(stack)
        assert bad.tolist() == [False, True, False]
        for row, chain in ((0, first), (2, last)):
            alone, alone_bad = batched_stationary_dense(stack[row : row + 1])
            assert not alone_bad[0]
            assert pi[row].tolist() == alone[0].tolist()
            dense = chain.with_solver("dense").stationary_distribution()
            assert pi[row].tolist() == [dense[state] for state in chain.states]

    @pytest.mark.parametrize("shape", [(3, 3), (1, 3, 2), (2, 2, 2, 2)])
    def test_non_stack_input_rejected(self, shape):
        with pytest.raises(ValueError):
            batched_stationary_dense(np.zeros(shape))
        with pytest.raises(ValueError):
            batched_absorption_times_dense(np.zeros(shape))

    def test_two_closed_classes(self):
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c", "d"],
            {("a", "b"): 1.0, ("b", "a"): 1.0, ("c", "d"): 1.0, ("d", "c"): 1.0},
            solver="dense",
        )
        with pytest.raises(np.linalg.LinAlgError):
            batched_stationary_dense(chain.generator_matrix()[None])
        with pytest.raises(ValueError, match="not unique"):
            chain.stationary_distribution()

    def test_absorption_single_stack_matches_chain(self):
        chain = ContinuousTimeMarkovChain(
            ["s", "loop", "a"],
            {("s", "a"): 1.0, ("s", "loop"): 3.0, ("loop", "s"): 2.0},
        )
        transient = chain.generator_matrix()[:2, :2]
        times, bad = batched_absorption_times_dense(transient[None])
        assert not bad[0]
        assert times[0, 0] == chain.mean_time_to_absorption("s", ["a"])
