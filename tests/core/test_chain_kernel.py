"""The O(hops) block-Thomas chain kernel against the dense LU reference.

Property-based coverage: random protocols × hop counts × heterogeeous
loss/congestion profiles must agree with the per-point dense reference
to 1e-9 relative, the kernel must reject structurally invalid input
with real errors (not garbage output), and ``REPRO_TEMPLATES=0`` must
still bypass the kernel entirely.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import SPARSE_STATE_THRESHOLD, batched_stationary_chain
from repro.core.multihop import Topology, TreeModel
from repro.core.multihop.heterogeneous import HeterogeneousHop
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol
from repro.core.templates import (
    CHAIN_BACKENDS,
    select_chain_backend,
    solve_heterogeneous_structured_tasks,
    solve_multihop_structured_tasks,
    tree_template,
)
from repro.runtime import solvers

MULTIHOP = Protocol.multihop_family()

#: The satellite contract: block-Thomas vs dense LU within 1e-9.
RTOL = 1e-9
ATOL = 1e-12


def chain_model(protocol, params, links=None) -> TreeModel:
    return TreeModel(protocol, params, Topology.chain(params.hops), links)


def chain_template(protocol, hops):
    return tree_template(protocol, Topology.chain(hops))


def _kernel_kwargs(template, derived):
    """Slice one chain template's derived-feature rows into kernel arguments."""
    update, advance, lose, recover, extra = template._chain_columns
    kwargs = {
        "update": derived[:, update],
        "advance": derived[:, advance],
        "lose": derived[:, lose],
        "recover": derived[:, recover],
    }
    if template.protocol is Protocol.HS:
        kwargs["false_signal"] = derived[:, extra[0]]
        kwargs["recovery_return"] = derived[:, extra[1]]
    else:
        kwargs["timeouts"] = derived[:, extra]
    return kwargs


def _stationary_vector(template, stationary):
    return np.array([stationary[state] for state in template.states])


@st.composite
def chain_cases(draw):
    """A random (protocol, params, heterogeneous hop profile) case."""
    protocol = draw(st.sampled_from(MULTIHOP))
    hops = draw(st.integers(min_value=1, max_value=16))
    params = MultiHopParameters(
        hops=hops,
        loss_rate=draw(st.floats(0.001, 0.45)),
        delay=draw(st.floats(0.005, 0.25)),
        update_rate=draw(st.floats(0.001, 2.0)),
        refresh_interval=draw(st.floats(0.5, 30.0)),
        timeout_interval=draw(st.floats(1.0, 90.0)),
        retransmission_interval=draw(st.floats(0.05, 1.0)),
        external_false_signal_rate=draw(st.floats(1e-6, 0.1)),
    )
    profile = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.tuples(st.floats(0.001, 0.45), st.floats(0.005, 0.25)),
                min_size=hops,
                max_size=hops,
            ).map(
                lambda pairs: tuple(
                    HeterogeneousHop(loss_rate=loss, delay=delay)
                    for loss, delay in pairs
                )
            ),
        )
    )
    return protocol, params, profile


class TestKernelAgreesWithDenseLU:
    @settings(max_examples=60, deadline=None)
    @given(chain_cases())
    def test_property_agreement(self, case):
        protocol, params, profile = case
        template = chain_template(protocol, params.hops)
        derived = template.derived_rows([(params, profile)])
        pi, bad = batched_stationary_chain(**_kernel_kwargs(template, derived))
        assert not bad.any()
        reference = chain_model(protocol, params, profile).solve()
        expected = _stationary_vector(template, reference.stationary)
        np.testing.assert_allclose(pi[0], expected, rtol=RTOL, atol=ATOL)

    def test_batched_points_match_per_point_solves(self):
        template = chain_template(Protocol.SS, 5)
        points = [
            (MultiHopParameters(hops=5, loss_rate=loss), None)
            for loss in (0.01, 0.1, 0.3)
        ]
        derived = template.derived_rows(points)
        pi, bad = batched_stationary_chain(**_kernel_kwargs(template, derived))
        assert not bad.any()
        for k, (params, _) in enumerate(points):
            single = template.derived_rows([(params, None)])
            pi_one, _ = batched_stationary_chain(**_kernel_kwargs(template, single))
            np.testing.assert_array_equal(pi[k], pi_one[0])

    def test_structured_task_entry_points(self):
        params = MultiHopParameters(hops=7, loss_rate=0.08)
        profile = tuple(
            HeterogeneousHop(loss_rate=0.02 * (i + 1), delay=0.02) for i in range(7)
        )
        for protocol in MULTIHOP:
            reference = chain_model(protocol, params).solve()
            structured = solve_multihop_structured_tasks([(protocol, params)])[0]
            assert structured.inconsistency_ratio == pytest.approx(
                reference.inconsistency_ratio, rel=RTOL, abs=ATOL
            )
            het_reference = chain_model(protocol, params, profile).solve()
            het_structured = solve_heterogeneous_structured_tasks(
                [(protocol, params, profile)]
            )[0]
            assert het_structured.inconsistency_ratio == pytest.approx(
                het_reference.inconsistency_ratio, rel=RTOL, abs=ATOL
            )


class TestStructuredErrors:
    def _valid_kwargs(self, k=2, n=3):
        return {
            "update": np.full(k, 0.1),
            "advance": np.full((k, n), 5.0),
            "lose": np.full((k, n), 0.5),
            "recover": np.full((k, n), 1.0),
            "timeouts": np.full((k, n), 0.2),
        }

    def test_rejects_non_vector_update(self):
        kwargs = self._valid_kwargs()
        kwargs["update"] = np.full((2, 2), 0.1)
        with pytest.raises(ValueError, match=r"update must be \(K,\)"):
            batched_stationary_chain(**kwargs)

    def test_rejects_mismatched_batch(self):
        kwargs = self._valid_kwargs()
        kwargs["lose"] = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="lose must be"):
            batched_stationary_chain(**kwargs)

    def test_rejects_mismatched_hops(self):
        kwargs = self._valid_kwargs()
        kwargs["recover"] = np.full((2, 4), 1.0)
        with pytest.raises(ValueError, match="disagree on hops"):
            batched_stationary_chain(**kwargs)

    def test_rejects_zero_hops(self):
        with pytest.raises(ValueError, match="at least one hop"):
            batched_stationary_chain(
                update=np.ones(1),
                advance=np.ones((1, 0)),
                lose=np.ones((1, 0)),
                recover=np.ones((1, 0)),
                timeouts=np.ones((1, 0)),
            )

    def test_rejects_neither_mode(self):
        kwargs = self._valid_kwargs()
        del kwargs["timeouts"]
        with pytest.raises(ValueError, match="not both or neither"):
            batched_stationary_chain(**kwargs)

    def test_rejects_both_modes(self):
        kwargs = self._valid_kwargs()
        kwargs["false_signal"] = np.full(2, 0.01)
        kwargs["recovery_return"] = np.full(2, 0.5)
        with pytest.raises(ValueError, match="not both or neither"):
            batched_stationary_chain(**kwargs)

    def test_rejects_half_of_hs_mode(self):
        kwargs = self._valid_kwargs()
        del kwargs["timeouts"]
        kwargs["false_signal"] = np.full(2, 0.01)
        with pytest.raises(ValueError, match="need both false_signal"):
            batched_stationary_chain(**kwargs)

    def test_rejects_wrong_timeout_shape(self):
        kwargs = self._valid_kwargs()
        kwargs["timeouts"] = np.full((2, 4), 0.2)
        with pytest.raises(ValueError, match="timeouts must be"):
            batched_stationary_chain(**kwargs)

    def test_degenerate_rates_marked_bad_not_garbage(self):
        # update=0 with no timeouts gives a zero tail drain: the point
        # must come back flagged, never as silently wrong mass.
        kwargs = self._valid_kwargs(k=2, n=3)
        kwargs["update"] = np.array([0.0, 0.1])
        kwargs["timeouts"] = np.zeros((2, 3))
        pi, bad = batched_stationary_chain(**kwargs)
        assert bad[0]
        assert not bad[1]
        assert np.all(np.isfinite(pi))

    def test_structured_route_refuses_a_branching_topology(self):
        template = tree_template(Protocol.SS, Topology.star(3))
        with pytest.raises(ValueError, match="needs a chain topology"):
            template.solve_structured([MultiHopParameters(hops=3)])

    def test_solver_task_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="chain backend"):
            solvers.solve_multihop_batch(
                [(Protocol.SS, MultiHopParameters(hops=3), "thomas")]
            )


class TestBackendRouting:
    def test_select_prefers_exact_template_below_threshold(self):
        for protocol in MULTIHOP:
            assert select_chain_backend(protocol, 4) == "template"

    def test_select_routes_large_chains_to_structured(self):
        # 2N+1 (+1 for HS's RECOVERY state) reaches the sparse
        # threshold: the splu path was already tolerance-class there, so
        # the structured kernel trades like for like.
        threshold_hops = (SPARSE_STATE_THRESHOLD + 1) // 2
        for protocol in MULTIHOP:
            assert select_chain_backend(protocol, threshold_hops) == "structured"
        assert select_chain_backend(Protocol.HS, threshold_hops - 1) == "structured"
        assert select_chain_backend(Protocol.SS, threshold_hops - 1) == "template"

    def test_backends_tuple_contains_auto(self):
        assert set(CHAIN_BACKENDS) == {"auto", "template", "structured"}

    def test_auto_task_and_explicit_backend_share_cache_entry(self):
        params = MultiHopParameters(hops=200, loss_rate=0.0421)
        auto, explicit, template = solvers.solve_multihop_batch(
            [
                (Protocol.SS, params),
                (Protocol.SS, params, "structured"),
                (Protocol.SS, params, "template"),
            ],
            jobs=1,
        )
        assert auto is explicit
        assert auto is not template

    def test_mixed_backend_chunk_preserves_order(self):
        tasks = [
            (Protocol.SS, MultiHopParameters(hops=3, loss_rate=0.07), "template"),
            (Protocol.SS, MultiHopParameters(hops=3, loss_rate=0.07), "structured"),
            (Protocol.SS_RT, MultiHopParameters(hops=2, loss_rate=0.07)),
        ]
        solutions = solvers.solve_multihop_batch(tasks, jobs=1)
        assert [s.protocol for s in solutions] == [t[0] for t in tasks]
        assert solutions[0].inconsistency_ratio == pytest.approx(
            solutions[1].inconsistency_ratio, rel=RTOL
        )


class TestTemplatesDisabledBypassesKernel:
    def test_repro_templates_0_never_touches_the_kernel(self, monkeypatch):
        # The escape hatch must route even explicitly-structured tasks
        # through the per-point reference models.
        monkeypatch.setenv("REPRO_TEMPLATES", "0")

        def _boom(*args, **kwargs):
            raise AssertionError("structured kernel used despite REPRO_TEMPLATES=0")

        monkeypatch.setattr(
            "repro.core.markov.batched_stationary_chain", _boom
        )
        monkeypatch.setattr(
            "repro.core.templates.batched_stationary_chain", _boom
        )
        params = MultiHopParameters(hops=130, loss_rate=0.0137)
        [solution] = solvers.solve_multihop_batch(
            [(Protocol.SS, params, "structured")]
        )
        reference = chain_model(Protocol.SS, params).solve()
        assert solution.inconsistency_ratio == reference.inconsistency_ratio
        assert solution.stationary == reference.stationary
