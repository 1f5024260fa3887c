"""Parity tests: compiled templates vs the per-point reference models.

The templates are the fast path for every sweep, so they are held to
the reference implementations across all protocols, both hop regimes,
heterogeneous hop vectors and the dense/sparse crossover.  The dense
path is designed to be *bit-identical* (same derived-rate expressions,
same matrix assembly, same stacked LAPACK routine); these tests assert
the ISSUE's 1e-12 budget but the dense cases typically agree exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import markov
from repro.core.gilbert.model import GilbertMultiHopModel
from repro.core.multihop import MultiHopModel
from repro.core.multihop.heterogeneous import (
    HeterogeneousHop,
    HeterogeneousMultiHopModel,
    hops_from_parameters,
    reach_profile,
)
from repro.core.parameters import (
    MultiHopParameters,
    SignalingParameters,
    kazaa_defaults,
    reservation_defaults,
)
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.faults.gilbert import GilbertElliottParameters
from repro.core.templates import (
    gilbert_multihop_template,
    multihop_template,
    singlehop_template,
    solve_heterogeneous_tasks,
    solve_multihop_tasks,
    solve_singlehop_tasks,
)

DENSE_TOL = 1e-12
SPARSE_TOL = 1e-9


def _assert_singlehop_parity(solution, reference, tol=DENSE_TOL):
    assert solution.protocol is reference.protocol
    assert solution.params == reference.params
    assert set(solution.stationary) == set(reference.stationary)
    for state, probability in reference.stationary.items():
        assert solution.stationary[state] == pytest.approx(probability, abs=tol)
    assert solution.inconsistency_ratio == pytest.approx(
        reference.inconsistency_ratio, abs=tol
    )
    assert solution.expected_receiver_lifetime == pytest.approx(
        reference.expected_receiver_lifetime, rel=tol, abs=tol
    )
    for component, rate in reference.message_breakdown.items():
        assert solution.message_breakdown[component] == pytest.approx(rate, abs=tol)


def _assert_multihop_parity(solution, reference, tol=DENSE_TOL):
    assert solution.protocol is reference.protocol
    assert set(solution.stationary) == set(reference.stationary)
    for state, probability in reference.stationary.items():
        assert solution.stationary[state] == pytest.approx(probability, abs=tol)
    for component, rate in reference.message_breakdown.items():
        assert solution.message_breakdown[component] == pytest.approx(rate, abs=tol)


def singlehop_grid() -> list[SignalingParameters]:
    base = kazaa_defaults()
    return [
        base,
        base.replace(loss_rate=0.0),
        base.replace(loss_rate=0.3, delay=0.1),
        base.with_coupled_timers(2.0),
        base.replace(update_rate=0.0),
        base.replace(external_false_signal_rate=0.0),
        base.replace(removal_rate=1.0 / 60.0, retransmission_interval=0.5),
    ]


class TestSingleHopTemplates:
    @pytest.mark.parametrize("protocol", Protocol)
    def test_solution_parity_across_grid(self, protocol):
        grid = singlehop_grid()
        solutions = singlehop_template(protocol).solve_batch(grid)
        for params, solution in zip(grid, solutions):
            _assert_singlehop_parity(
                solution, SingleHopModel(protocol, params).solve()
            )

    def test_dense_path_is_bit_identical(self):
        """The headline guarantee: not just 1e-12 — the same bits."""
        params = kazaa_defaults()
        for protocol in Protocol:
            solution = singlehop_template(protocol).solve_batch([params])[0]
            reference = SingleHopModel(protocol, params).solve()
            assert solution.stationary == reference.stationary
            assert solution.expected_receiver_lifetime == (
                reference.expected_receiver_lifetime
            )
            assert solution.message_breakdown == reference.message_breakdown

    def test_task_order_preserved_across_mixed_protocols(self):
        base = kazaa_defaults()
        tasks = [
            (protocol, base.replace(delay=delay))
            for delay in (0.01, 0.03)
            for protocol in (Protocol.HS, Protocol.SS, Protocol.SS_RTR)
        ]
        solutions = solve_singlehop_tasks(tasks)
        assert [s.protocol for s in solutions] == [t[0] for t in tasks]
        assert [s.params for s in solutions] == [t[1] for t in tasks]

    def test_empty_batch(self):
        assert singlehop_template(Protocol.SS).solve_batch([]) == []


def multihop_grid() -> list[MultiHopParameters]:
    base = reservation_defaults()
    return [
        base.replace(hops=1),
        base.replace(hops=3, loss_rate=0.1),
        base.replace(hops=20),
        base.replace(hops=7, loss_rate=0.0),
        base.replace(hops=5).with_coupled_timers(2.0),
    ]


class TestMultiHopTemplates:
    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_homogeneous_parity(self, protocol):
        grid = multihop_grid()
        solutions = solve_multihop_tasks([(protocol, params) for params in grid])
        for params, solution in zip(grid, solutions):
            _assert_multihop_parity(solution, MultiHopModel(protocol, params).solve())

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_heterogeneous_parity(self, protocol):
        params = reservation_defaults().replace(hops=6)
        vectors = [
            hops_from_parameters(params),
            (HeterogeneousHop(0.2, 0.05),) + hops_from_parameters(params)[1:],
            tuple(
                HeterogeneousHop(loss, delay)
                for loss, delay in zip(
                    (0.0, 0.05, 0.01, 0.3, 0.0, 0.08),
                    (0.01, 0.03, 0.02, 0.1, 0.05, 0.03),
                )
            ),
        ]
        tasks = [(protocol, params, hops) for hops in vectors]
        solutions = solve_heterogeneous_tasks(tasks)
        for hops, solution in zip(vectors, solutions):
            _assert_multihop_parity(
                solution, HeterogeneousMultiHopModel(protocol, params, hops).solve()
            )

    def test_hop_count_mismatch_rejected(self):
        template = multihop_template(Protocol.SS, 5)
        with pytest.raises(ValueError):
            template.solve_batch([(reservation_defaults().replace(hops=4), None)])

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(ValueError):
            multihop_template(Protocol.SS_ER, 5)

    def test_mixed_homogeneous_and_heterogeneous_share_structure(self):
        params = reservation_defaults().replace(hops=4)
        template = multihop_template(Protocol.SS_RT, 4)
        hom, het = template.solve_batch(
            [(params, None), (params, hops_from_parameters(params))]
        )
        # Identical hop values: both flavors must agree on the physics.
        for state, probability in hom.stationary.items():
            assert het.stationary[state] == pytest.approx(probability, rel=1e-9)


class TestSparseCrossover:
    """Template and reference must agree on both sides of the threshold."""

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_crossover_parity_with_lowered_threshold(self, protocol, monkeypatch):
        # 8 hops -> 17 or 18 states: below the real threshold.  Lowering
        # it flips both the reference chain and the template to sparse.
        params = reservation_defaults().replace(hops=8)
        hops = tuple(
            HeterogeneousHop(0.01 + 0.005 * i, 0.02 + 0.001 * i) for i in range(8)
        )
        template = multihop_template(protocol, 8)
        assert not template._use_sparse()
        dense = solve_heterogeneous_tasks([(protocol, params, hops)])[0]
        monkeypatch.setattr(markov, "SPARSE_STATE_THRESHOLD", 10)
        assert template._use_sparse()
        sparse = solve_heterogeneous_tasks([(protocol, params, hops)])[0]
        model = HeterogeneousMultiHopModel(protocol, params, hops)
        chain = model.chain()
        assert chain._use_sparse(len(chain.states))
        reference = model.solve()
        for state, probability in reference.stationary.items():
            assert sparse.stationary[state] == pytest.approx(
                probability, abs=SPARSE_TOL
            )
            assert dense.stationary[state] == pytest.approx(
                probability, abs=SPARSE_TOL
            )

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_zero_loss_above_threshold_is_bit_identical(self, protocol):
        """At 128 hops and loss 0 the loss edges carry rate 0: the
        template solves the positive sub-pattern, the one the reference
        rate dict holds, so the two agree bit for bit."""
        params = reservation_defaults().replace(hops=128, loss_rate=0.0)
        solution = multihop_template(protocol, 128).solve_batch(
            [(params, None)], backend="template"
        )[0]
        reference = MultiHopModel(protocol, params).solve()
        assert list(solution.stationary.items()) == list(reference.stationary.items())
        assert solution.message_breakdown == reference.message_breakdown

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_gilbert_70_hops_with_zero_rate_edges_is_bit_identical(self, protocol):
        gilbert = GilbertElliottParameters(0.01, 0.5, 0.1, 1.0)
        params = reservation_defaults().replace(hops=70)
        template = gilbert_multihop_template(protocol, 70)
        assert template._use_sparse()
        if protocol is not Protocol.HS:
            # Protocol edges this channel gives rate 0 in the bad state.
            rates = template.edge_rates([(params, gilbert)])[0]
            assert np.count_nonzero(rates == 0.0) == 256
        solution = template.solve_batch([(params, gilbert)])[0]
        reference = GilbertMultiHopModel(protocol, params, gilbert).solve()
        assert list(solution.stationary.items()) == list(reference.stationary.items())
        assert solution.message_breakdown == reference.message_breakdown

    def test_real_threshold_crossing_at_128_hops(self):
        """128 hops (257 states) crosses the real threshold; 96 does not."""
        below = multihop_template(Protocol.SS, 96)
        above = multihop_template(Protocol.SS, 128)
        assert not below._use_sparse()
        assert above._use_sparse()
        params = reservation_defaults().replace(hops=128)
        solution = solve_multihop_tasks([(Protocol.SS, params)])[0]
        reference = MultiHopModel(Protocol.SS, params).solve()
        _assert_multihop_parity(solution, reference, tol=SPARSE_TOL)


class TestReachProfile:
    def test_prefix_products_match_model_reach(self):
        hops = tuple(
            HeterogeneousHop(loss, 0.03) for loss in (0.0, 0.1, 0.02, 0.3, 0.05)
        )
        params = reservation_defaults().replace(hops=5)
        model = HeterogeneousMultiHopModel(Protocol.SS, params, hops)
        profile = reach_profile(hops)
        assert profile[0] == 1.0
        for k in range(6):
            assert model.reach_probability(k) == profile[k]
        with pytest.raises(ValueError):
            model.reach_probability(6)

    def test_against_paper_homogeneous_formula(self):
        params = reservation_defaults().replace(hops=4, loss_rate=0.02)
        profile = reach_profile(hops_from_parameters(params))
        for k in range(5):
            assert profile[k] == pytest.approx((1.0 - 0.02) ** k, rel=1e-14)


class TestTemplatesDisabledEscapeHatch:
    def test_batches_match_reference_path(self, monkeypatch):
        from repro.runtime import global_cache, solve_singlehop_batch

        base = kazaa_defaults()
        tasks = [
            (protocol, base.replace(delay=delay))
            for protocol in (Protocol.SS, Protocol.HS)
            for delay in (0.01, 0.05)
        ]
        global_cache().clear()
        fast = solve_singlehop_batch(tasks)
        monkeypatch.setenv("REPRO_TEMPLATES", "0")
        global_cache().clear()
        reference = solve_singlehop_batch(tasks)
        global_cache().clear()
        assert [s.stationary for s in fast] == [s.stationary for s in reference]
        assert [s.message_breakdown for s in fast] == [
            s.message_breakdown for s in reference
        ]
