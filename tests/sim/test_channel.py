"""Tests for the lossy, delaying, non-reordering channel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.channel import Channel, ChannelConfig, GilbertElliottProcess
from repro.sim.engine import Environment, SimulationError
from repro.sim.randomness import RandomStreams, TimerDiscipline


def every(env, gap, count, action):
    """Call ``action(i)`` for each ``i < count``, ``gap`` apart, from now."""

    def call(i):
        action(i)
        if i + 1 < count:
            env.call_later(gap, call, i + 1)

    env.call_later(0.0, call, 0)


def make_channel(loss=0.0, delay=0.1, discipline=TimerDiscipline.DETERMINISTIC, seed=1):
    env = Environment()
    received = []
    channel = Channel(
        env,
        ChannelConfig(loss_rate=loss, mean_delay=delay, delay_discipline=discipline),
        RandomStreams(seed).stream("chan"),
        received.append,
    )
    return env, channel, received


class TestChannelConfig:
    @pytest.mark.parametrize("loss", [-0.1, 1.5])
    def test_invalid_loss_rejected(self, loss):
        with pytest.raises(ValueError):
            ChannelConfig(loss_rate=loss, mean_delay=0.1)

    @pytest.mark.parametrize("delay", [-0.5, float("-inf")])
    def test_invalid_delay_rejected(self, delay):
        with pytest.raises(ValueError):
            ChannelConfig(loss_rate=0.0, mean_delay=delay)

    @pytest.mark.parametrize("loss,delay", [(1.0, 0.1), (0.0, 0.0), (1.0, 0.0)])
    def test_boundary_configs_accepted(self, loss, delay):
        config = ChannelConfig(loss_rate=loss, mean_delay=delay)
        assert config.loss_rate == loss
        assert config.mean_delay == delay


class TestDelivery:
    def test_lossless_delivers_everything(self):
        env, channel, received = make_channel()
        for i in range(100):
            assert channel.send(i)
        env.run()
        assert [m.payload for m in received] == list(range(100))
        assert channel.delivered == 100
        assert channel.lost == 0

    def test_fixed_delay_applied(self):
        env, channel, received = make_channel(delay=0.25)
        channel.send("x")
        env.run()
        assert received[0].sent_at == 0.0
        assert received[0].delivered_at == 0.25

    def test_loss_statistics_conserved(self):
        env, channel, received = make_channel(loss=0.4, seed=3)
        for i in range(2000):
            channel.send(i)
        env.run()
        assert channel.sent == 2000
        assert channel.lost + channel.delivered == channel.sent
        assert channel.delivered == len(received)

    def test_loss_rate_statistically_plausible(self):
        env, channel, _ = make_channel(loss=0.3, seed=5)
        for i in range(10_000):
            channel.send(i)
        env.run()
        assert channel.lost / channel.sent == pytest.approx(0.3, abs=0.02)

    def test_certain_delivery_with_zero_loss(self):
        env, channel, _ = make_channel(loss=0.0)
        assert all(channel.send(i) for i in range(50))

    def test_send_returns_false_on_drop(self):
        env, channel, _ = make_channel(loss=0.999999, seed=9)
        outcomes = [channel.send(i) for i in range(20)]
        assert not any(outcomes)


class TestNonReordering:
    def test_exponential_delays_do_not_reorder(self):
        env, channel, received = make_channel(
            delay=0.5, discipline=TimerDiscipline.EXPONENTIAL, seed=11
        )
        for i in range(500):
            channel.send(i)
        env.run()
        payloads = [m.payload for m in received]
        assert payloads == sorted(payloads)

    def test_delivery_times_monotone(self):
        env, channel, received = make_channel(
            delay=0.5, discipline=TimerDiscipline.EXPONENTIAL, seed=13
        )
        every(env, 0.01, 200, channel.send)
        env.run()
        times = [m.delivered_at for m in received]
        assert times == sorted(times)

    @given(seed=st.integers(0, 2**16), loss=st.floats(0.0, 0.8))
    @settings(max_examples=25, deadline=None)
    def test_fifo_property_random_channels(self, seed, loss):
        env, channel, received = make_channel(
            loss=loss, delay=0.2, discipline=TimerDiscipline.EXPONENTIAL, seed=seed
        )
        for i in range(100):
            channel.send(i)
        env.run()
        payloads = [m.payload for m in received]
        assert payloads == sorted(payloads)


class TestEdgeCases:
    def test_certain_loss_drops_everything(self):
        env, channel, received = make_channel(loss=1.0)
        outcomes = [channel.send(i) for i in range(100)]
        env.run()
        assert not any(outcomes)
        assert channel.lost == channel.sent == 100
        assert channel.delivered == 0
        assert received == []

    def test_zero_loss_zero_delay_instant_delivery(self):
        env, channel, received = make_channel(loss=0.0, delay=0.0)
        for i in range(20):
            channel.send(i)
        env.run()
        assert [m.payload for m in received] == list(range(20))
        assert all(m.delivered_at == m.sent_at == 0.0 for m in received)

    def test_zero_delay_preserves_send_order(self):
        env, channel, received = make_channel(loss=0.0, delay=0.0)
        # Message 0 at t=0, then bursts of seven sends 0.5 s apart.
        for i in range(50):
            env.call_later(0.5 * ((i + 6) // 7), channel.send, i)
        env.run()
        payloads = [m.payload for m in received]
        assert payloads == sorted(payloads)

    def test_certain_loss_with_zero_delay(self):
        env, channel, received = make_channel(loss=1.0, delay=0.0)
        assert not channel.send("x")
        env.run()
        assert received == []

    def test_random_drop_schedules_nothing(self):
        env, channel, _ = make_channel(loss=1.0)
        assert not channel.send("x")
        with pytest.raises(SimulationError, match="empty"):
            env.step()


class TestDrawDiscipline:
    """Each send reads the channel stream in one fixed pattern.

    A send draws one uniform for the loss decision; only a message that
    survives it draws its delay (exponential discipline only), and its
    delivery is clamped to the previous delivery time.  Replaying the
    same stream by hand must give every outcome and, per message, its
    send and delivery times.  Delivery order is TestNonReordering's.
    """

    @pytest.mark.parametrize(
        "discipline", [TimerDiscipline.DETERMINISTIC, TimerDiscipline.EXPONENTIAL]
    )
    @pytest.mark.parametrize("loss", [0.0, 0.25, 0.6, 1.0])
    def test_outcomes_and_times_replay_from_the_stream(self, loss, discipline):
        env, channel, received = make_channel(
            loss=loss, delay=0.3, discipline=discipline, seed=43
        )
        sends = []
        every(env, 0.1, 300, lambda i: sends.append((i, env.now, channel.send(i))))
        env.run()

        replay = RandomStreams(43).stream("chan")
        expected = []
        last_delivery = -float("inf")
        for i, sent_at, accepted in sends:
            kept = not replay.random() < loss
            assert accepted is kept
            if kept:
                delay = (
                    0.3
                    if discipline is TimerDiscipline.DETERMINISTIC
                    else float(replay.exponential(0.3))
                )
                last_delivery = max(sent_at + delay, last_delivery)
                expected.append((i, sent_at, last_delivery))
        by_payload = {m.payload: m for m in received}
        assert sorted(by_payload) == [i for i, _, _ in expected]
        assert [by_payload[i].sent_at for i, _, _ in expected] == [t for _, t, _ in expected]
        assert [by_payload[i].delivered_at for i, _, _ in expected] == pytest.approx(
            [t for _, _, t in expected], rel=1e-12
        )
        assert (channel.sent, channel.delivered) == (300, len(expected))

    def test_loss_rate_is_read_at_the_send_instant(self):
        queried = []

        class Outage:
            """Certain loss before t=2, none after."""

            def loss_rate_at(self, now):
                queried.append(now)
                return 1.0 if now < 2.0 else 0.0

        env = Environment()
        channel = Channel(
            env,
            ChannelConfig(loss_rate=0.0, mean_delay=0.1),
            RandomStreams(3).stream("chan"),
            lambda _msg: None,
            loss_process=Outage(),
        )
        outcomes = []
        every(env, 1.0, 4, lambda _i: outcomes.append(channel.send(env.now)))
        env.run()
        assert queried == [0.0, 1.0, 2.0, 3.0]
        assert outcomes == [False, False, True, True]


class TestDownFlag:
    def test_down_channel_loses_deterministically(self):
        env, channel, received = make_channel(loss=0.0)
        channel.down = True
        outcomes = [channel.send(i) for i in range(10)]
        env.run()
        assert not any(outcomes)
        assert channel.lost == 10
        assert received == []

    def test_down_drops_consume_no_randomness(self):
        """A link outage must not shift the loss stream of later traffic."""

        def run(down_sends: int) -> list[bool]:
            env, channel, _ = make_channel(loss=0.4, seed=23)
            channel.down = True
            for i in range(down_sends):
                channel.send(("outage", i))
            channel.down = False
            return [channel.send(i) for i in range(200)]

        # The post-outage loss pattern is identical no matter how much
        # traffic the outage swallowed.
        assert run(0) == run(1) == run(17)

    def test_down_drop_schedules_nothing(self):
        env, channel, _ = make_channel(loss=0.0)
        channel.down = True
        assert not channel.send("x")
        with pytest.raises(SimulationError, match="empty"):
            env.step()

    def test_down_drops_leave_the_delay_draws_unshifted(self):
        def run(down_sends: int) -> list[float]:
            env, channel, received = make_channel(
                loss=0.3, delay=0.2, discipline=TimerDiscipline.EXPONENTIAL, seed=29
            )
            channel.down = True
            for i in range(down_sends):
                channel.send(("outage", i))
            channel.down = False
            for i in range(100):
                channel.send(i)
            env.run()
            return [m.delivered_at for m in received]

        assert run(0) == run(5)

    def test_down_channel_does_not_query_the_loss_process(self):
        # Querying a Gilbert-Elliott process advances its own stream, so
        # an outage must not touch it either.
        queried = []

        class RecordingProcess:
            def loss_rate_at(self, now):
                queried.append(now)
                return 0.0

        env = Environment()
        channel = Channel(
            env,
            ChannelConfig(loss_rate=0.0, mean_delay=0.1),
            RandomStreams(3).stream("chan"),
            lambda _msg: None,
            loss_process=RecordingProcess(),
        )
        channel.down = True
        channel.send("lost")
        channel.down = False
        channel.send("kept")
        assert queried == [0.0]


class TestGilbertElliottProcess:
    @staticmethod
    def make_process(**overrides):
        kwargs = dict(
            loss_good=0.0,
            loss_bad=0.2,
            good_to_bad=0.1,
            bad_to_good=1.0,
            rng=RandomStreams(31).stream("gilbert-channel"),
        )
        kwargs.update(overrides)
        return GilbertElliottProcess(**kwargs)

    def test_validation(self):
        with pytest.raises(ValueError, match="loss_good"):
            self.make_process(loss_good=-0.1)
        with pytest.raises(ValueError, match="loss_bad"):
            self.make_process(loss_bad=1.5)
        with pytest.raises(ValueError, match="good_to_bad"):
            self.make_process(good_to_bad=-1.0)
        with pytest.raises(ValueError, match="bad_to_good"):
            self.make_process(bad_to_good=-1.0)

    def test_zero_rates_pin_the_good_state(self):
        process = self.make_process(good_to_bad=0.0, bad_to_good=0.0)
        for t in (0.0, 1.0, 1e6):
            assert not process.is_bad(t)
            assert process.loss_rate_at(t) == 0.0

    def test_absorbing_bad_state(self):
        # With no return rate, the first flip strands the channel bad.
        process = self.make_process(good_to_bad=10.0, bad_to_good=0.0)
        assert process.is_bad(1e6)
        assert process.loss_rate_at(1e9) == 0.2

    def test_queries_are_monotone_consistent(self):
        # Re-querying the same instant does not advance the process.
        process = self.make_process()
        first = process.loss_rate_at(5.0)
        assert process.loss_rate_at(5.0) == first
        assert process.is_bad(5.0) == (first == 0.2)


class TestGilbertDegeneracy:
    """A degenerate modulator must be invisible, bit for bit."""

    @staticmethod
    def run_channel(loss_process, seed=37, n=500):
        env = Environment()
        received = []
        channel = Channel(
            env,
            ChannelConfig(
                loss_rate=0.15,
                mean_delay=0.2,
                delay_discipline=TimerDiscipline.EXPONENTIAL,
            ),
            RandomStreams(seed).stream("chan"),
            received.append,
            loss_process=loss_process,
        )
        every(env, 0.05, n, channel.send)
        env.run()
        return channel, received

    def test_degenerate_process_matches_iid_bit_for_bit(self):
        # Same per-state loss as the config's i.i.d. rate: the channel
        # consumes the identical draws from the identical stream, so
        # every delivery record matches exactly.
        degenerate = GilbertElliottProcess(
            0.15, 0.15, 0.5, 2.0, RandomStreams(41).stream("gilbert-channel")
        )
        iid_channel, iid_received = self.run_channel(None)
        ge_channel, ge_received = self.run_channel(degenerate)
        assert ge_received == iid_received
        assert (ge_channel.sent, ge_channel.lost, ge_channel.delivered) == (
            iid_channel.sent,
            iid_channel.lost,
            iid_channel.delivered,
        )

    def test_bursty_process_diverges_from_iid(self):
        bursty = GilbertElliottProcess(
            0.0, 1.0, 0.5, 2.0, RandomStreams(41).stream("gilbert-channel")
        )
        iid_channel, _ = self.run_channel(None)
        ge_channel, _ = self.run_channel(bursty)
        assert ge_channel.lost != iid_channel.lost
