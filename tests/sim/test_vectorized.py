"""The vectorized replication path against the scalar event engine.

The contract is *bit identity*: for every supported config the
vectorized replay must produce the exact
:class:`~repro.protocols.session.SingleHopSimResult` the event engine
produces — same floats, same counts — because it replays the same
random streams in the same draw order through the same floating-point
op sequence.  Configs it cannot replay must be refused loudly
(``engine="vectorized"``) or fall back silently (``engine="auto"``,
dirty lanes), never drift.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.protocols.vectorized as vectorized_module
from repro.core.parameters import kazaa_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import (
    SIM_ENGINES,
    SingleHopSimulation,
    simulate_replications,
)
from repro.protocols.vectorized import (
    simulate_replications_vectorized,
    supports_vectorized_config,
)
from repro.sim.monitor import TimeWeightedValue
from repro.sim.randomness import RandomStreams, TimerDiscipline
from repro.sim.vectorized import (
    UniformPool,
    delivery_times,
    fold_active_time,
    fold_cumsum,
    refresh_grid,
)
from repro.validation.equivalence import SIM_EQUIVALENCE_CRITERIA


def make_config(protocol=Protocol.SS, sessions=15, seed=7, **param_changes):
    params = kazaa_defaults().replace(**param_changes)
    return SingleHopSimConfig(
        protocol=protocol, params=params, sessions=sessions, seed=seed
    )


def scalar_lanes(config, replications):
    """The event engine's per-replication results, seeded like the set."""
    streams = RandomStreams(config.seed)
    return [
        SingleHopSimulation(config.replace(seed=streams.spawn(i).seed)).run()
        for i in range(replications)
    ]


class TestArrayPrimitives:
    def test_uniform_pool_matches_scalar_draws(self):
        pool = UniformPool(RandomStreams(3).stream("forward-channel"))
        scalar_rng = RandomStreams(3).stream("forward-channel")
        for count in (1, 5, 0, 17, 2):
            block = pool.take(count)
            expected = [float(scalar_rng.random()) for _ in range(count)]
            np.testing.assert_array_equal(block, expected)

    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    def test_uniform_pool_chunk_size_is_invisible(self, chunk):
        reference = RandomStreams(9).stream("forward-channel").random(64)
        pool = UniformPool(RandomStreams(9).stream("forward-channel"), chunk=chunk)
        drawn = np.concatenate([pool.take(n) for n in (3, 11, 1, 30, 19)])
        np.testing.assert_array_equal(drawn, reference)

    def test_uniform_pool_rejects_bad_arguments(self):
        rng = RandomStreams(1).stream("forward-channel")
        with pytest.raises(ValueError, match="chunk"):
            UniformPool(rng, chunk=0)
        with pytest.raises(ValueError, match="count"):
            UniformPool(rng).take(-1)

    def test_fold_cumsum_is_the_left_fold(self):
        increments = np.array([0.1, 0.2, 0.3, 1e-9])
        out = fold_cumsum(5.0, increments)
        acc, expected = 5.0, [5.0]
        for inc in increments:
            acc = acc + inc
            expected.append(acc)
        np.testing.assert_array_equal(out, expected)

    def test_refresh_grid_folds_per_row(self):
        grid = refresh_grid(np.array([0.0, 1.7]), 0.3, 3)
        for row, start in zip(grid, (0.0, 1.7)):
            np.testing.assert_array_equal(row, fold_cumsum(start, np.full(3, 0.3)))

    def test_delivery_times_reproduce_engine_double_rounding(self):
        sends = np.array([0.1, 45.048, 1e6 + 0.7])
        delay = 0.03
        expected = [t + ((t + delay) - t) for t in sends]
        np.testing.assert_array_equal(delivery_times(sends, delay), expected)

    def test_fold_active_time_matches_time_weighted_value(self):
        times = np.array([0.0, 0.4, 0.4, 1.1, 2.0, 2.0])
        flags = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])

        class Clock:
            now = 0.0

        clock = Clock()
        monitor = TimeWeightedValue(clock, initial=flags[0])
        for t, flag in zip(times[1:], flags[1:]):
            clock.now = float(t)
            monitor.set(flag)
        assert fold_active_time(times, flags) == monitor.integral()

    def test_fold_active_time_degenerate_inputs(self):
        assert fold_active_time(np.array([]), np.array([])) == 0.0
        assert fold_active_time(np.array([3.0]), np.array([1.0])) == 0.0


class TestBitIdentity:
    @pytest.mark.parametrize("protocol", [Protocol.SS, Protocol.SS_ER])
    @pytest.mark.parametrize("loss", [0.02, 0.3, 0.6])
    def test_lane_results_equal_engine_results(self, protocol, loss):
        config = make_config(protocol, sessions=15, seed=40, loss_rate=loss)
        vec = simulate_replications_vectorized(config, 2)
        assert vec == scalar_lanes(config, 2)

    def test_timeout_multiple_of_refresh_ties(self):
        # T = 3R with constant delay puts refresh receipts exactly on
        # timeout expiries; the engine fires the earlier-scheduled
        # timeout first and the refresh re-installs at the same instant.
        config = make_config(
            Protocol.SS,
            sessions=25,
            seed=40,
            loss_rate=0.3,
            refresh_interval=5.0,
            timeout_interval=15.0,
        )
        vec = simulate_replications_vectorized(config, 3)
        scalar = scalar_lanes(config, 3)
        assert vec == scalar
        assert sum(r.timeout_removals for r in scalar) > 0

    def test_dirty_lanes_fall_back_to_the_engine(self, monkeypatch):
        # Delay comparable to the timeout leaves receipts in flight
        # across session ends; those lanes must be re-run through the
        # scalar engine and still match it exactly.
        config = make_config(
            Protocol.SS, sessions=15, seed=1, loss_rate=0.6, delay=4.0
        )
        dirty = 0
        original = vectorized_module._simulate_lane

        def counting(lane_config):
            nonlocal dirty
            outcome = original(lane_config)
            if outcome is None:
                dirty += 1
            return outcome

        monkeypatch.setattr(vectorized_module, "_simulate_lane", counting)
        vec = simulate_replications_vectorized(config, 2)
        assert dirty > 0
        assert vec == scalar_lanes(config, 2)

    def test_zero_update_rate_sessions(self):
        config = make_config(
            Protocol.SS_ER, sessions=20, seed=3, loss_rate=0.4, update_rate=0.0
        )
        assert simulate_replications_vectorized(config, 2) == scalar_lanes(config, 2)


class TestReplicationSetDispatch:
    def test_auto_equals_scalar_samples_exactly(self):
        config = make_config(Protocol.SS_ER, sessions=20, seed=11, loss_rate=0.1)
        auto = simulate_replications(config, 4, engine="auto")
        scalar = simulate_replications(config, 4, engine="scalar")
        explicit = simulate_replications(config, 4, engine="vectorized")
        for metric in ("inconsistency_ratio", "normalized_message_rate"):
            assert auto.samples(metric) == scalar.samples(metric)
            assert explicit.samples(metric) == scalar.samples(metric)

    def test_replication_count_prefix_determinism(self):
        # Lane k's stream depends only on (seed, k): a longer run's
        # samples extend a shorter run's, they never reshuffle.
        config = make_config(Protocol.SS, sessions=12, seed=21, loss_rate=0.2)
        short = simulate_replications(config, 3, engine="vectorized")
        long = simulate_replications(config, 5, engine="vectorized")
        for metric in ("inconsistency_ratio", "normalized_message_rate"):
            assert long.samples(metric)[:3] == short.samples(metric)

    def test_pool_chunk_size_does_not_change_results(self, monkeypatch):
        config = make_config(Protocol.SS_ER, sessions=15, seed=13, loss_rate=0.3)
        reference = simulate_replications_vectorized(config, 2)
        monkeypatch.setattr(
            vectorized_module,
            "UniformPool",
            lambda rng: UniformPool(rng, chunk=5),
        )
        assert simulate_replications_vectorized(config, 2) == reference

    def test_auto_falls_back_for_unsupported_protocols(self):
        config = make_config(Protocol.SS_RT, sessions=10, seed=5)
        auto = simulate_replications(config, 2, engine="auto")
        scalar = simulate_replications(config, 2, engine="scalar")
        for metric in ("inconsistency_ratio", "normalized_message_rate"):
            assert auto.samples(metric) == scalar.samples(metric)


class TestEngineValidation:
    def test_engine_names(self):
        assert SIM_ENGINES == ("auto", "scalar", "vectorized")
        with pytest.raises(ValueError, match="unknown sim engine"):
            simulate_replications(make_config(), 2, engine="numpy")

    def test_replications_validated(self):
        with pytest.raises(ValueError, match="replications"):
            simulate_replications(make_config(), 0)
        with pytest.raises(ValueError, match="replications"):
            simulate_replications_vectorized(make_config(), 0)

    @pytest.mark.parametrize(
        "changes",
        [
            {"protocol": Protocol.SS_RT},
            {"protocol": Protocol.SS_RTR},
            {"protocol": Protocol.HS},
            {"timer_discipline": TimerDiscipline.EXPONENTIAL},
            {"delay_discipline": TimerDiscipline.EXPONENTIAL},
            {"sample_times": (10.0, 20.0)},
        ],
    )
    def test_unsupported_configs_refused(self, changes):
        config = make_config().replace(**changes)
        assert not supports_vectorized_config(config)
        with pytest.raises(ValueError, match="vectorized"):
            simulate_replications(config, 2, engine="vectorized")
        with pytest.raises(ValueError, match="not supported"):
            simulate_replications_vectorized(config, 2)

    def test_gilbert_channel_refused(self):
        from repro.faults.gilbert import GilbertElliottParameters

        config = make_config().replace(
            gilbert=GilbertElliottParameters(
                loss_good=0.01, loss_bad=0.5, good_to_bad=0.01, bad_to_good=0.1
            )
        )
        assert not supports_vectorized_config(config)

    def test_delay_at_or_above_timeout_refused(self):
        config = make_config(delay=20.0, timeout_interval=15.0)
        assert not supports_vectorized_config(config)

    def test_supported_config_accepted(self):
        assert supports_vectorized_config(make_config(Protocol.SS))
        assert supports_vectorized_config(make_config(Protocol.SS_ER))


class TestModelEquivalence:
    def test_fig11_point_equivalent_to_model(self):
        # The fig11 acceptance gate at unit-test scale: the vectorized
        # simulator's estimate must sit inside the registered
        # Student-t equivalence band around the analytic model.
        params = kazaa_defaults()
        config = SingleHopSimConfig(
            protocol=Protocol.SS, params=params, sessions=300, seed=2024
        )
        results = simulate_replications(config, 8, engine="vectorized")
        model = SingleHopModel(Protocol.SS, params).solve()

        inconsistency = results.interval("inconsistency_ratio")
        criterion = SIM_EQUIVALENCE_CRITERIA["inconsistency"]
        assert abs(inconsistency.mean - model.inconsistency_ratio) <= (
            criterion.allowance(model.inconsistency_ratio, inconsistency.half_width)
        )

        message_rate = results.interval("normalized_message_rate")
        criterion = SIM_EQUIVALENCE_CRITERIA["message_rate"]
        assert abs(message_rate.mean - model.normalized_message_rate) <= (
            criterion.allowance(model.normalized_message_rate, message_rate.half_width)
        )
