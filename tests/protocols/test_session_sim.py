"""Integration tests: the full single-hop simulation against the model.

The central validation of the reproduction: for every protocol, the
packet-level simulator and the analytic chain must agree on the paper's
metrics within tolerances comparable to the paper's own (Fig. 11:
inconsistency within a few percent relative, message rate within
5-15%).
"""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.receiver import SignalingReceiver
from repro.protocols.sender import SignalingSender
from repro.protocols.session import SingleHopSimulation, simulate_replications
from repro.sim.randomness import TimerDiscipline


def run_sim(protocol, params, sessions=200, seed=404, **kwargs):
    config = SingleHopSimConfig(
        protocol=protocol, params=params, sessions=sessions, seed=seed, **kwargs
    )
    return SingleHopSimulation(config).run()


class TestMechanics:
    def test_sessions_complete(self, params):
        result = run_sim(Protocol.SS, params, sessions=20)
        assert result.sessions == 20
        assert result.sim_time > 0

    def test_inconsistent_time_bounded(self, params):
        result = run_sim(Protocol.SS, params, sessions=20)
        assert 0.0 <= result.inconsistent_time <= result.sim_time

    def test_message_counts_present(self, params):
        result = run_sim(Protocol.SS, params, sessions=20)
        assert result.message_counts["trigger"] >= 20  # one per install
        assert result.message_counts["refresh"] > 0

    def test_ss_sends_only_triggers_and_refreshes(self, params):
        result = run_sim(Protocol.SS, params, sessions=30)
        assert set(result.message_counts) <= {"trigger", "refresh"}

    def test_hs_message_kinds(self, params):
        result = run_sim(Protocol.HS, params, sessions=30)
        kinds = set(result.message_counts)
        assert "refresh" not in kinds
        assert {"trigger", "ack", "removal", "removal_ack"} <= kinds

    def test_ss_er_sends_removals(self, params):
        result = run_sim(Protocol.SS_ER, params, sessions=30)
        assert result.message_counts["removal"] >= 25  # ~one per session

    def test_reproducible_with_same_seed(self, params):
        a = run_sim(Protocol.SS_RTR, params, sessions=30, seed=5)
        b = run_sim(Protocol.SS_RTR, params, sessions=30, seed=5)
        assert a.inconsistency_ratio == b.inconsistency_ratio
        assert a.message_counts == b.message_counts

    def test_different_seeds_differ(self, params):
        a = run_sim(Protocol.SS, params, sessions=30, seed=5)
        b = run_sim(Protocol.SS, params, sessions=30, seed=6)
        assert a.inconsistency_ratio != b.inconsistency_ratio

    def test_lossless_channel_no_timeout_removals_for_er(self, lossless_params):
        result = run_sim(Protocol.SS_ER, lossless_params, sessions=30)
        assert result.timeout_removals == 0

    def test_false_signals_only_for_hs(self, params):
        boosted = params.replace(external_false_signal_rate=0.01)
        hs = run_sim(Protocol.HS, boosted, sessions=50)
        ss = run_sim(Protocol.SS, boosted, sessions=50)
        assert hs.false_signal_removals > 0
        assert ss.false_signal_removals == 0

    def test_a_raising_false_signal_leaves_the_run(self, params, monkeypatch):
        class Boom(Exception):
            pass

        def false_remove(receiver):
            raise Boom("false signal")

        monkeypatch.setattr(SignalingReceiver, "false_remove", false_remove)
        boosted = params.replace(external_false_signal_rate=0.01)
        with pytest.raises(Boom):
            run_sim(Protocol.HS, boosted, sessions=50)

    def test_a_raising_update_leaves_the_run(self, params, monkeypatch):
        class Boom(Exception):
            pass

        def update(sender):
            raise Boom("update")

        monkeypatch.setattr(SignalingSender, "update", update)
        with pytest.raises(Boom):
            run_sim(Protocol.SS, params, sessions=50)

    def test_each_session_installs_once(self, params, monkeypatch):
        install = SignalingSender.install
        installs = []

        def counting_install(sender):
            installs.append(sender.env.now)
            install(sender)

        monkeypatch.setattr(SignalingSender, "install", counting_install)
        result = run_sim(Protocol.SS_ER, params, sessions=15)
        assert len(installs) == 15
        assert installs == sorted(installs)
        assert installs[-1] < result.sim_time

    def test_run_ends_with_both_sides_empty(self, params):
        config = SingleHopSimConfig(
            protocol=Protocol.SS, params=params, sessions=10, seed=404
        )
        simulation = SingleHopSimulation(config)
        result = simulation.run()
        assert simulation.sender.value is None
        assert simulation.receiver.value is None
        assert result.sim_time == simulation.env.now

    def test_mean_cycle_length_near_session_length(self, params):
        result = run_sim(Protocol.SS_ER, params, sessions=100)
        assert result.mean_cycle_length == pytest.approx(
            params.mean_session_length, rel=0.3
        )

    def test_normalized_message_rate_requires_positive_rate(self, params):
        result = run_sim(Protocol.SS, params, sessions=10)
        with pytest.raises(ValueError):
            result.normalized_message_rate(0.0)

    def test_invalid_config_rejected(self, params):
        with pytest.raises(ValueError):
            SingleHopSimConfig(protocol=Protocol.SS, params=params, sessions=0)
        with pytest.raises(ValueError):
            SingleHopSimConfig(
                protocol=Protocol.SS, params=params.replace(removal_rate=0.0)
            )


class TestModelAgreement:
    """Simulation vs analytic model, protocol by protocol."""

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_matches_model(self, protocol, params):
        model = SingleHopModel(protocol, params).solve()
        result = run_sim(protocol, params, sessions=400, seed=2024)
        assert result.inconsistency_ratio == pytest.approx(
            model.inconsistency_ratio, rel=0.35, abs=5e-4
        )

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_message_rate_matches_model(self, protocol, params):
        model = SingleHopModel(protocol, params).solve()
        result = run_sim(protocol, params, sessions=400, seed=2024)
        assert result.normalized_message_rate(params.removal_rate) == pytest.approx(
            model.normalized_message_rate, rel=0.2
        )

    def test_exponential_timers_track_model_for_hs(self, params):
        # HS has no refresh/timeout race, so simulating it with
        # exponential timers realizes the model's assumptions directly.
        protocol = Protocol.HS
        model = SingleHopModel(protocol, params).solve()
        result = run_sim(
            protocol,
            params,
            sessions=400,
            seed=77,
            timer_discipline=TimerDiscipline.EXPONENTIAL,
            delay_discipline=TimerDiscipline.EXPONENTIAL,
        )
        assert result.inconsistency_ratio == pytest.approx(
            model.inconsistency_ratio, rel=0.25
        )

    def test_exponential_timeout_race_hurts_soft_state(self, params):
        # A *memoryless* state-timeout races each refresh and fires
        # first with probability R/(R+T) — so a genuinely exponential-
        # timer SS protocol false-removes constantly.  This is why the
        # paper's protocols use deterministic timers and why its model
        # treats the exponential assumption as a solution device (it
        # folds false removal into the separate lambda_f rate instead).
        result = run_sim(
            Protocol.SS,
            params,
            sessions=100,
            seed=77,
            timer_discipline=TimerDiscipline.EXPONENTIAL,
        )
        deterministic = run_sim(Protocol.SS, params, sessions=100, seed=77)
        assert result.timeout_removals > 10 * max(deterministic.timeout_removals, 1)

    def test_protocol_ordering_preserved_in_simulation(self, params):
        results = {
            protocol: run_sim(protocol, params, sessions=300, seed=99)
            for protocol in Protocol
        }
        inconsistency = {p: r.inconsistency_ratio for p, r in results.items()}
        # The paper's grouping at the default point (Fig. 4a at 1800s):
        assert inconsistency[Protocol.SS_ER] < inconsistency[Protocol.SS]
        assert inconsistency[Protocol.SS_RTR] < inconsistency[Protocol.SS_ER]
        assert inconsistency[Protocol.HS] < inconsistency[Protocol.SS_ER]


class TestReplications:
    def test_replication_metrics_collected(self, params):
        config = SingleHopSimConfig(
            protocol=Protocol.SS, params=params, sessions=30, seed=1
        )
        results = simulate_replications(config, replications=4)
        assert results.count("inconsistency_ratio") == 4
        assert results.count("normalized_message_rate") == 4

    def test_replications_are_independent(self, params):
        config = SingleHopSimConfig(
            protocol=Protocol.SS, params=params, sessions=30, seed=1
        )
        results = simulate_replications(config, replications=4)
        samples = results.samples("inconsistency_ratio")
        assert len(set(samples)) == 4

    def test_invalid_replication_count(self, params):
        config = SingleHopSimConfig(
            protocol=Protocol.SS, params=params, sessions=10, seed=1
        )
        with pytest.raises(ValueError):
            simulate_replications(config, replications=0)

    def test_confidence_interval_brackets_model_most_of_the_time(self, params):
        # A loose statistical check on one protocol: the model value
        # should be near the replicated CI (deterministic timers bias
        # the simulation slightly, so allow 2x the half-width).
        config = SingleHopSimConfig(
            protocol=Protocol.SS_RTR, params=params, sessions=150, seed=31
        )
        results = simulate_replications(config, replications=5)
        interval = results.interval("inconsistency_ratio")
        model = SingleHopModel(Protocol.SS_RTR, params).solve()
        distance = abs(interval.mean - model.inconsistency_ratio)
        assert distance < max(2.0 * interval.half_width, 0.3 * model.inconsistency_ratio)
