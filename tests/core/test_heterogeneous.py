"""Tests for the heterogeneous multi-hop extension: the chain's tree
model with a per-hop link profile."""

from __future__ import annotations

import pytest

from repro.core.multihop import (
    HeterogeneousHop,
    Topology,
    TreeModel,
    hops_from_parameters,
)
from repro.core.multihop.heterogeneous import reach_profile
from repro.core.parameters import MultiHopParameters
from repro.core.protocols import Protocol


def uniform_params(hops=5, loss=0.02):
    return MultiHopParameters(hops=hops, loss_rate=loss)


def chain_model(protocol, params, links=None):
    return TreeModel(protocol, params, Topology.chain(params.hops), links)


class TestConstruction:
    def test_hop_vector_length_checked(self):
        params = uniform_params(hops=5)
        with pytest.raises(ValueError):
            chain_model(Protocol.SS, params, [HeterogeneousHop(0.01, 0.03)] * 4)

    def test_branching_topology_rejected(self):
        params = uniform_params(hops=3)
        with pytest.raises(ValueError, match="needs a chain topology"):
            TreeModel(Protocol.SS, params, Topology.star(3), hops_from_parameters(params))

    def test_invalid_hop_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousHop(loss_rate=1.0, delay=0.03)
        with pytest.raises(ValueError):
            HeterogeneousHop(loss_rate=0.1, delay=0.0)

    def test_unsupported_protocol_rejected(self):
        params = uniform_params()
        with pytest.raises(ValueError):
            chain_model(Protocol.SS_ER, params, hops_from_parameters(params))


class TestHomogeneousEquivalence:
    """With identical hops, the extension must equal the paper's model."""

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_inconsistency_matches(self, protocol):
        params = uniform_params(hops=6, loss=0.05)
        homogeneous = chain_model(protocol, params).solve()
        heterogeneous = chain_model(protocol, params, hops_from_parameters(params)).solve()
        assert heterogeneous.inconsistency_ratio == pytest.approx(
            homogeneous.inconsistency_ratio, rel=1e-9
        )

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_message_rate_matches(self, protocol):
        params = uniform_params(hops=6, loss=0.05)
        homogeneous = chain_model(protocol, params).solve()
        heterogeneous = chain_model(protocol, params, hops_from_parameters(params)).solve()
        assert heterogeneous.message_rate == pytest.approx(
            homogeneous.message_rate, rel=1e-9
        )

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_hop_profile_matches(self, protocol):
        params = uniform_params(hops=4)
        homogeneous = chain_model(protocol, params).solve().hop_profile()
        heterogeneous = chain_model(protocol, params, hops_from_parameters(params)).solve()
        heterogeneous = heterogeneous.hop_profile()
        for a, b in zip(homogeneous, heterogeneous):
            assert b == pytest.approx(a, rel=1e-9)


class TestHeterogeneity:
    def make_chain_with_bad_link(self, position: int, protocol=Protocol.SS):
        """A 5-hop chain with one 20%-loss link among 0.5%-loss links."""
        params = uniform_params(hops=5, loss=0.005)
        hops = [HeterogeneousHop(0.005, 0.03) for _ in range(5)]
        hops[position] = HeterogeneousHop(0.20, 0.03)
        return chain_model(protocol, params, hops).solve()

    def test_reach_probability_products(self):
        hops = [
            HeterogeneousHop(0.1, 0.03),
            HeterogeneousHop(0.2, 0.03),
            HeterogeneousHop(0.5, 0.03),
        ]
        reach = reach_profile(hops)
        assert reach[0] == 1.0
        assert reach[2] == pytest.approx(0.9 * 0.8)
        assert reach[3] == pytest.approx(0.9 * 0.8 * 0.5)

    def test_bad_link_hurts_more_than_clean_chain(self):
        clean = chain_model(Protocol.SS, uniform_params(hops=5, loss=0.005)).solve()
        dirty = self.make_chain_with_bad_link(2)
        assert dirty.inconsistency_ratio > 2 * clean.inconsistency_ratio

    def test_early_bad_link_worse_than_late_for_ss(self):
        # A lossy first link starves every downstream hop of refreshes;
        # a lossy last link only hurts the final hop.
        early = self.make_chain_with_bad_link(0)
        late = self.make_chain_with_bad_link(4)
        assert early.inconsistency_ratio > late.inconsistency_ratio

    def test_hop_by_hop_reliability_localizes_damage(self):
        ss = self.make_chain_with_bad_link(0, Protocol.SS)
        rt = self.make_chain_with_bad_link(0, Protocol.SS_RT)
        assert rt.inconsistency_ratio < 0.4 * ss.inconsistency_ratio

    def test_profile_jumps_at_bad_link(self):
        solution = self.make_chain_with_bad_link(2)
        profile = solution.hop_profile()
        # The step from hop 2 to hop 3 (crossing the bad link) dominates
        # the neighboring steps.
        steps = [b - a for a, b in zip(profile, profile[1:])]
        assert steps[1] > 3 * steps[0]
        assert steps[1] > 3 * steps[2]
