"""Tests for the transient family adapters."""

from __future__ import annotations

import pytest

from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_states import TreeState
from repro.core.protocols import Protocol
from repro.transient import (
    ChainTransientModel,
    SingleHopTransientModel,
    TreeTransientModel,
    transient_model,
)


class TestDispatch:
    def test_parameter_type_picks_family(self, params, multihop_params):
        assert isinstance(
            transient_model(Protocol.SS, params), SingleHopTransientModel
        )
        assert isinstance(
            transient_model(Protocol.SS, multihop_params), ChainTransientModel
        )
        topology = Topology.kary(2, 2)
        assert isinstance(
            transient_model(
                Protocol.SS, multihop_params.replace(hops=topology.num_edges), topology
            ),
            TreeTransientModel,
        )

    def test_tree_requires_multihop_parameters(self, params):
        with pytest.raises(TypeError):
            transient_model(Protocol.SS, params, Topology.kary(2, 2))


def hop_state(consistent_hops, slow):
    """The paper's chain state ``(i, s)`` as the unary tree names it."""
    return TreeState(tuple(range(1, consistent_hops + 1)), (consistent_hops + 1,) if slow else ())


class TestInitialVectors:
    def test_empty_is_a_point_mass(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        vector = model.initial_vector("empty")
        assert vector.sum() == pytest.approx(1.0)
        assert vector[model.states().index(hop_state(0, False))] == 1.0

    def test_stationary_matches_chain_solution(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        vector = model.initial_vector("stationary")
        stationary = model.nominal_chain().stationary_distribution()
        for state, value in zip(model.states(), vector):
            assert value == pytest.approx(stationary[state], abs=1e-12)

    def test_unknown_initial_rejected(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        with pytest.raises(ValueError):
            model.initial_vector("warm")


class TestDegradedChains:
    def test_state_space_is_preserved(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        degraded = model.degraded_chain((multihop_params.hops,))
        assert degraded.states == model.states()

    def test_degraded_single_hop_is_full_loss(self, params):
        model = SingleHopTransientModel(Protocol.SS, params)
        degraded = model.degraded_chain((1,))
        assert degraded.states == model.states()

    def test_unknown_link_rejected(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        with pytest.raises(ValueError):
            model.degraded_chain((multihop_params.hops + 1,))
        with pytest.raises(ValueError):
            model.degraded_chain(())

    def test_chains_are_cached(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        assert model.nominal_chain() is model.nominal_chain()
        assert model.degraded_chain((1,)) is model.degraded_chain((1,))


class TestCrashProjections:
    def test_last_node_projection_drops_deepest_state(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        projection = model.crash_projection(multihop_params.hops)
        states = model.states()
        n = multihop_params.hops
        target = states.index(hop_state(n - 1, True))
        assert projection[states.index(hop_state(n, False))] == target
        # States strictly below the crashed node are untouched.
        shallow = states.index(hop_state(1, False))
        assert projection[shallow] == shallow

    def test_interior_chain_crash_rejected(self, multihop_params):
        model = ChainTransientModel(Protocol.SS, multihop_params)
        with pytest.raises(ValueError, match="last node"):
            model.crash_projection(1)

    def test_tree_crash_rejected(self, multihop_params):
        topology = Topology.kary(2, 2)
        model = TreeTransientModel(
            Protocol.SS, multihop_params.replace(hops=topology.num_edges), topology
        )
        with pytest.raises(ValueError, match="tree node crashes"):
            model.crash_projection(1)

    def test_single_hop_crash_maps_consistent_to_installed_only(self, params):
        from repro.core.singlehop.states import SingleHopState as S

        model = SingleHopTransientModel(Protocol.SS, params)
        projection = model.crash_projection(1)
        states = model.states()
        assert projection[states.index(S.CONSISTENT)] == states.index(S.S10_SLOW)


class TestTreeSurgery:
    def test_downed_child_cannot_join_consistent_set(self, multihop_params):
        topology = Topology.kary(2, 2)
        tree_params = multihop_params.replace(hops=topology.num_edges)
        model = TreeTransientModel(Protocol.SS, tree_params, topology)
        downed = 1
        degraded = model.degraded_chain((downed,))
        for (origin, destination), rate in degraded.rates.items():
            gained = set(destination.consistent) - set(origin.consistent)
            assert downed not in gained, (origin, destination, rate)

    def test_surgery_only_removes_rates(self, multihop_params):
        topology = Topology.kary(2, 2)
        tree_params = multihop_params.replace(hops=topology.num_edges)
        model = TreeTransientModel(Protocol.SS, tree_params, topology)
        nominal = model.nominal_chain()
        degraded = model.degraded_chain((1,))
        assert set(degraded.rates).issubset(set(nominal.rates))
        for key, rate in degraded.rates.items():
            assert rate == nominal.rates[key]
