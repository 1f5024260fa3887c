"""Integration tests: multi-hop chain simulation vs the multi-hop model."""

from __future__ import annotations

import pytest

from repro.core.multihop import Topology, TreeModel
from repro.core.protocols import Protocol
from repro.multihop.chain import MultiHopSimulation, simulate_multihop_replications
from repro.multihop.config import MultiHopSimConfig


def run_chain(protocol, params, horizon=4000.0, warmup=200.0, seed=101):
    config = MultiHopSimConfig(
        protocol=protocol, params=params, horizon=horizon, warmup=warmup, seed=seed
    )
    return MultiHopSimulation(config).run()


class TestMechanics:
    def test_result_shape(self, multihop_params):
        result = run_chain(Protocol.SS, multihop_params, horizon=1000.0)
        assert result.hops == multihop_params.hops
        assert len(result.hop_inconsistent_time) == multihop_params.hops
        assert result.measured_time == pytest.approx(800.0)

    def test_message_counting_positive(self, multihop_params):
        result = run_chain(Protocol.SS, multihop_params, horizon=1000.0)
        assert result.link_transmissions > 0
        assert result.message_rate > 0

    def test_hop_bounds(self, multihop_params):
        result = run_chain(Protocol.SS, multihop_params, horizon=500.0)
        with pytest.raises(ValueError):
            result.hop_inconsistency(0)
        with pytest.raises(ValueError):
            result.hop_inconsistency(multihop_params.hops + 1)

    def test_reproducible(self, multihop_params):
        a = run_chain(Protocol.SS_RT, multihop_params, horizon=800.0, seed=9)
        b = run_chain(Protocol.SS_RT, multihop_params, horizon=800.0, seed=9)
        assert a.inconsistency_ratio == b.inconsistency_ratio
        assert a.link_transmissions == b.link_transmissions

    def test_config_validation(self, multihop_params):
        with pytest.raises(ValueError):
            MultiHopSimConfig(protocol=Protocol.SS_ER, params=multihop_params)
        with pytest.raises(ValueError):
            MultiHopSimConfig(
                protocol=Protocol.SS, params=multihop_params, horizon=-1.0
            )
        with pytest.raises(ValueError):
            MultiHopSimConfig(
                protocol=Protocol.SS, params=multihop_params, horizon=10.0, warmup=20.0
            )

    def test_lossless_chain_nearly_consistent(self, multihop_params):
        lossless = multihop_params.replace(
            loss_rate=0.0, external_false_signal_rate=0.0
        )
        result = run_chain(Protocol.SS, lossless, horizon=2000.0)
        # Only update-propagation windows (N*Delta every ~60s) remain.
        assert result.inconsistency_ratio < 0.02


class TestModelAgreement:
    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_inconsistency_matches_model(self, protocol, multihop_params):
        # Average a few replications rather than trusting one run: the
        # deterministic-timer bias is systematic (~-25% on I for soft
        # state) while single-run noise is comparable to the margin.
        model = TreeModel(protocol, multihop_params, Topology.chain(multihop_params.hops)).solve()
        config = MultiHopSimConfig(
            protocol=protocol, params=multihop_params,
            horizon=8000.0, warmup=200.0, seed=101,
        )
        mean = simulate_multihop_replications(config, 4).mean("inconsistency_ratio")
        assert mean == pytest.approx(model.inconsistency_ratio, rel=0.4, abs=1e-3)

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_message_rate_matches_model(self, protocol, multihop_params):
        model = TreeModel(protocol, multihop_params, Topology.chain(multihop_params.hops)).solve()
        config = MultiHopSimConfig(
            protocol=protocol, params=multihop_params,
            horizon=8000.0, warmup=200.0, seed=101,
        )
        mean = simulate_multihop_replications(config, 4).mean("message_rate")
        assert mean == pytest.approx(model.message_rate, rel=0.35)

    def test_hop_profile_monotone_in_simulation(self, multihop_params):
        result = run_chain(Protocol.SS, multihop_params, horizon=8000.0)
        profile = result.hop_profile()
        # Allow small statistical wiggle while requiring overall growth.
        assert profile[-1] > profile[0]
        for a, b in zip(profile, profile[1:]):
            assert b >= a - 0.002

    def test_protocol_ordering_preserved(self, multihop_params):
        results = {
            protocol: run_chain(protocol, multihop_params, horizon=6000.0)
            for protocol in Protocol.multihop_family()
        }
        assert (
            results[Protocol.SS_RT].inconsistency_ratio
            < results[Protocol.SS].inconsistency_ratio
        )
        assert (
            results[Protocol.HS].message_rate < results[Protocol.SS].message_rate
        )


class TestReplications:
    def test_metrics_collected(self, multihop_params):
        config = MultiHopSimConfig(
            protocol=Protocol.SS,
            params=multihop_params,
            horizon=600.0,
            warmup=100.0,
            seed=1,
        )
        results = simulate_multihop_replications(config, replications=3)
        assert results.count("inconsistency_ratio") == 3
        assert results.count("message_rate") == 3
        assert results.count("last_hop_inconsistency") == 3

    def test_invalid_replications(self, multihop_params):
        config = MultiHopSimConfig(
            protocol=Protocol.SS, params=multihop_params, horizon=600.0
        )
        with pytest.raises(ValueError):
            simulate_multihop_replications(config, replications=0)
