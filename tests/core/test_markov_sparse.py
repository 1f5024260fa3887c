"""Tests for the scipy.sparse CTMC backend (dense parity + selection)."""

from __future__ import annotations

import pytest

from repro.core.markov import SPARSE_STATE_THRESHOLD, ContinuousTimeMarkovChain
from repro.core.multihop import MultiHopModel
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol


def birth_death_chain(n: int, solver: str) -> ContinuousTimeMarkovChain:
    rates = {}
    for i in range(n - 1):
        rates[(i, i + 1)] = 2.0
        rates[(i + 1, i)] = 1.0 + 0.01 * i
    return ContinuousTimeMarkovChain(range(n), rates, solver=solver)


class TestSolverSelection:
    def test_invalid_solver_rejected(self):
        with pytest.raises(ValueError):
            ContinuousTimeMarkovChain([0, 1], {(0, 1): 1.0, (1, 0): 1.0}, solver="magic")

    def test_auto_stays_dense_below_threshold(self):
        chain = birth_death_chain(8, "auto")
        assert not chain._use_sparse(len(chain.states))

    def test_auto_goes_sparse_above_threshold(self):
        pytest.importorskip("scipy")
        n = SPARSE_STATE_THRESHOLD
        chain = birth_death_chain(n, "auto")
        assert chain._use_sparse(n)

    def test_merge_states_propagates_solver(self):
        chain = ContinuousTimeMarkovChain(
            [0, 1, 2], {(0, 1): 1.0, (1, 2): 2.0, (2, 0): 3.0}, solver="sparse"
        )
        assert chain.merge_states(2, 0).solver == "sparse"


class TestDenseSparseParity:
    @pytest.fixture(autouse=True)
    def _need_scipy(self):
        pytest.importorskip("scipy")

    def test_stationary_distribution_matches_dense(self):
        dense = birth_death_chain(120, "dense").stationary_distribution()
        sparse = birth_death_chain(120, "sparse").stationary_distribution()
        assert sparse == pytest.approx(dense, abs=1e-12)

    def test_mean_time_to_absorption_matches_dense(self):
        n = 120
        dense = birth_death_chain(n, "dense").mean_time_to_absorption(0, [n - 1])
        sparse = birth_death_chain(n, "sparse").mean_time_to_absorption(0, [n - 1])
        assert sparse == pytest.approx(dense, rel=1e-9)

    def test_small_chain_forced_sparse_matches_dense(self):
        rates = {(0, 1): 0.7, (1, 2): 2.0, (2, 0): 3.0, (1, 0): 0.1}
        dense = ContinuousTimeMarkovChain([0, 1, 2], rates, solver="dense")
        sparse = ContinuousTimeMarkovChain([0, 1, 2], rates, solver="sparse")
        assert sparse.stationary_distribution() == pytest.approx(
            dense.stationary_distribution(), abs=1e-12
        )

    def test_multihop_model_chain_parity(self):
        """The paper's own chains give identical metrics on both backends."""
        params = reservation_defaults()
        model = MultiHopModel(Protocol.SS, params)
        dense = ContinuousTimeMarkovChain(
            model.chain().states, model.transition_rates(), solver="dense"
        ).stationary_distribution()
        sparse = ContinuousTimeMarkovChain(
            model.chain().states, model.transition_rates(), solver="sparse"
        ).stationary_distribution()
        assert sparse == pytest.approx(dense, abs=1e-12)

    def test_large_multihop_chain_solves_sparse(self):
        """A 400-hop heterogeneous-regime chain crosses the auto
        threshold and still produces a valid distribution."""
        params = reservation_defaults().replace(hops=400)
        model = MultiHopModel(Protocol.SS, params)
        chain = model.chain()
        assert len(chain.states) >= SPARSE_STATE_THRESHOLD
        pi = chain.stationary_distribution()
        assert sum(pi.values()) == pytest.approx(1.0)
        assert all(p >= 0.0 for p in pi.values())

    def test_sparse_generator_matches_dense(self):
        import numpy as np

        chain = birth_death_chain(50, "auto")
        assert np.allclose(chain.sparse_generator_matrix().toarray(), chain.generator_matrix())


def transient_hub_chain(solver: str) -> ContinuousTimeMarkovChain:
    """300 states: a transient hub (state 0) fed by 200 transient states
    (1..200) and draining into a closed 99-state ring (201..299).  The
    hub has the most in-neighbours of any state, yet its mass is 0."""
    rates = {}
    for i in range(1, 201):
        rates[(i, 0)] = 1.0 + 0.01 * i
        if i < 200:
            rates[(i, i + 1)] = 0.5
    rates[(0, 201)] = 3.0
    for j in range(201, 299):
        rates[(j, j + 1)] = 0.7
        rates[(j + 1, j)] = 0.4
    rates[(299, 201)] = 0.5
    return ContinuousTimeMarkovChain(range(300), rates, solver=solver)


class TestPinnedSystem:
    @pytest.fixture(autouse=True)
    def _need_scipy(self):
        pytest.importorskip("scipy")

    def test_transient_hub_gets_exactly_zero(self):
        # The pinned state must come from the closed class: pinning the
        # hub, the state with the most in-neighbours, leaves it a mass of
        # about 4e-17 instead of 0.
        from repro.runtime import failure_report, solve_chain_stationary

        before = failure_report().solver_fallbacks
        sparse = solve_chain_stationary(transient_hub_chain("sparse"))
        assert failure_report().solver_fallbacks == before
        dense = transient_hub_chain("dense").stationary_distribution()
        assert all(sparse[state] == 0.0 for state in range(201))
        assert sparse == pytest.approx(dense, abs=1e-12)

    def test_pin_is_the_closed_class_hub(self):
        chain = transient_hub_chain("sparse")
        chain.stationary_distribution()
        # Ring states 202..298 tie on two in-neighbours; 201 has three.
        assert chain._system.pin == 201


class TestSparseErrorHandling:
    @pytest.fixture(autouse=True)
    def _need_scipy(self):
        pytest.importorskip("scipy")

    def test_two_closed_classes_rejected(self):
        chain = ContinuousTimeMarkovChain(
            [0, 1, 2, 3],
            {(0, 1): 1.0, (1, 0): 1.0, (2, 3): 1.0, (3, 2): 1.0},
            solver="sparse",
        )
        with pytest.raises(ValueError):
            chain.stationary_distribution()

    def test_uncertain_absorption_rejected(self):
        chain = ContinuousTimeMarkovChain(
            [0, 1, 2], {(0, 1): 1.0, (1, 0): 1.0}, solver="sparse"
        )
        with pytest.raises(ValueError):
            chain.mean_time_to_absorption(0, [2])
