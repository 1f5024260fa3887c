"""Tests for the uniformization kernel against the dense expm oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from repro.core.markov import SPARSE_STATE_THRESHOLD, ContinuousTimeMarkovChain
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.core.multihop import Topology, TreeModel
from repro.core.uniformization import _transition_operator, uniformized_transient


def _expm_oracle(chain: ContinuousTimeMarkovChain, initial: np.ndarray, times):
    generator = chain.generator_matrix()
    return np.array([initial @ expm(generator * t) for t in times])


def _start_vector(chain: ContinuousTimeMarkovChain, state) -> np.ndarray:
    vector = np.zeros(len(chain.states))
    vector[chain.states.index(state)] = 1.0
    return vector


class TestAgainstExpm:
    def test_single_hop_matches_to_1e10(self):
        model = SingleHopModel(Protocol.SS, kazaa_defaults())
        chain = model.recurrent_chain()
        initial = _start_vector(chain, chain.states[0])
        times = (0.0, 0.01, 0.1, 1.0, 5.0, 30.0, 120.0)
        result = uniformized_transient(chain, initial, times)
        oracle = _expm_oracle(chain, initial, times)
        assert np.max(np.abs(result.probabilities - oracle)) < 1e-10

    def test_all_protocols_match(self):
        for protocol in Protocol:
            chain = SingleHopModel(protocol, kazaa_defaults()).recurrent_chain()
            initial = _start_vector(chain, chain.states[0])
            result = uniformized_transient(chain, initial, (0.5, 10.0))
            oracle = _expm_oracle(chain, initial, (0.5, 10.0))
            assert np.max(np.abs(result.probabilities - oracle)) < 1e-10

    def test_sparse_chain_matches_oracle(self):
        # Past the crossover the kernel iterates on the CSR operator;
        # the dense oracle still fits in memory at this size.
        hops = (SPARSE_STATE_THRESHOLD - 2) // 2 + 5
        params = reservation_defaults().replace(hops=hops)
        chain = TreeModel(Protocol.SS, params, Topology.chain(params.hops)).chain()
        assert len(chain.states) >= SPARSE_STATE_THRESHOLD
        initial = _start_vector(chain, chain.states[0])
        result = uniformized_transient(chain, initial, (0.1, 2.0))
        oracle = _expm_oracle(chain, initial, (0.1, 2.0))
        assert np.max(np.abs(result.probabilities - oracle)) < 1e-9


class TestKernelBehavior:
    def test_time_zero_is_exactly_initial(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 3.0})
        initial = np.array([0.25, 0.75])
        result = uniformized_transient(chain, initial, (0.0,))
        assert np.allclose(result.probabilities[0], initial, atol=1e-15)

    def test_rows_sum_to_one(self):
        chain = ContinuousTimeMarkovChain(
            ["a", "b", "c"], {("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "a"): 0.5}
        )
        result = uniformized_transient(
            chain, np.array([1.0, 0.0, 0.0]), (0.1, 1.0, 10.0, 100.0)
        )
        assert np.allclose(result.probabilities.sum(axis=1), 1.0, atol=1e-12)

    def test_steady_state_detection_exits_early(self):
        chain = ContinuousTimeMarkovChain(
            ["on", "off"], {("on", "off"): 3.0, ("off", "on"): 2.0}
        )
        result = uniformized_transient(chain, np.array([1.0, 0.0]), (1e6,))
        assert result.steady_state_detected
        # Without the early exit the series needs ~ Lambda*t = 3e6 terms.
        assert result.iterations < 10_000
        stationary = chain.stationary_distribution()
        assert result.probabilities[0][0] == pytest.approx(
            stationary["on"], abs=1e-9
        )

    def test_unsorted_and_repeated_grid_allowed(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 2.0})
        initial = np.array([1.0, 0.0])
        result = uniformized_transient(chain, initial, (5.0, 0.5, 5.0))
        assert np.allclose(result.probabilities[0], result.probabilities[2])
        oracle = _expm_oracle(chain, initial, (0.5,))
        assert np.allclose(result.probabilities[1], oracle[0], atol=1e-12)

    def test_rate_zero_chain_never_moves(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 0.0})
        initial = np.array([0.5, 0.5])
        result = uniformized_transient(chain, initial, (0.0, 7.0, 1e5))
        assert np.allclose(result.probabilities, initial)
        assert result.iterations == 0

    def test_empty_grid(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 1.0})
        result = uniformized_transient(chain, np.array([1.0, 0.0]), ())
        assert result.probabilities.shape == (0, 2)
        assert result.times == ()

    def test_negative_time_rejected(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 1.0})
        with pytest.raises(ValueError):
            uniformized_transient(chain, np.array([1.0, 0.0]), (-1.0,))

    def test_non_distribution_initial_rejected(self):
        chain = ContinuousTimeMarkovChain(["a", "b"], {("a", "b"): 1.0})
        with pytest.raises(ValueError):
            uniformized_transient(chain, np.array([0.9, 0.9]), (1.0,))
        with pytest.raises(ValueError):
            uniformized_transient(chain, np.array([1.0]), (1.0,))


def _term_by_term(chain, initial, times, rel_tol=1e-12, steady_state_tol=1e-12):
    """The series summed one term at a time: the reference whose
    probabilities, ``iterations`` and early exit the blocked kernel
    must reproduce bit for bit."""
    times = np.asarray(times, dtype=float)
    rate = max(chain._exit_rates)
    operator = _transition_operator(chain, rate)
    rate_times = rate * times
    with np.errstate(divide="ignore"):
        log_rate_times = np.log(rate_times)
    positive = rate_times > 0.0
    output = np.zeros((times.size, len(chain.states)))
    accumulated = np.zeros(times.size)
    max_rate_time = float(rate_times.max())
    cap = int(max_rate_time + 12.0 * math.sqrt(max_rate_time + 1.0) + 64.0)
    vector, iterations, steady = initial, 0, False
    for k in range(cap + 1):
        weights = np.zeros_like(rate_times)
        if k == 0:
            weights[~positive] = 1.0
        weights[positive] = np.exp(
            k * log_rate_times[positive] - rate_times[positive] - gammaln(k + 1)
        )
        output += weights[:, None] * vector
        accumulated += weights
        if np.all(accumulated >= 1.0 - rel_tol):
            break
        advanced = operator @ vector
        iterations += 1
        if float(np.abs(advanced - vector).sum()) < steady_state_tol:
            output += (1.0 - accumulated)[:, None] * advanced
            steady = True
            break
        vector = advanced
    output = np.clip(output, 0.0, None)
    output /= output.sum(axis=1, keepdims=True)
    return output, iterations, steady


def _random_case(seed: int):
    """A random chain (2-300 states, dense or CSR), grid and start."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([2, 3, 5, 7, 12, 40, 255, 256, 300]))
    rates = {}
    for i in range(n):
        for j in range(n):
            if i != j and (abs(i - j) == 1 or rng.random() < 3.0 / n):
                rates[(i, j)] = float(rng.lognormal(0.0, 2.0))
    chain = ContinuousTimeMarkovChain(range(n), rates)
    times = rng.uniform(0.0, 1.0, int(rng.choice([1, 2, 13, 60])))
    if rng.random() < 0.3:
        times[0] = 0.0
    # Scale the horizon to at most 1500 terms of the series.
    times *= rng.uniform(1.0, 1500.0) / (max(chain._exit_rates) * times.max() or 1.0)
    initial = rng.random(n) if rng.random() < 0.5 else np.eye(n)[rng.integers(n)]
    tolerances = {}
    draw = rng.random()
    if draw < 0.2:
        tolerances["steady_state_tol"] = float(10.0 ** rng.uniform(-8.0, -2.0))
    elif draw < 0.3:
        tolerances["rel_tol"] = float(10.0 ** rng.uniform(-300.0, -3.0))
    return chain, initial / initial.sum(), tuple(times), tolerances


@pytest.mark.parametrize("seed", range(40))
def test_blocked_kernel_equals_term_by_term_loop(seed):
    chain, initial, times, tolerances = _random_case(seed)
    result = uniformized_transient(chain, initial, times, **tolerances)
    probabilities, iterations, steady = _term_by_term(chain, initial, times, **tolerances)
    assert (result.iterations, result.steady_state_detected) == (iterations, steady)
    assert result.probabilities.tobytes() == probabilities.tobytes()
