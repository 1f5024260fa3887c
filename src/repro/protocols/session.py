"""Single-hop simulation harness: wiring, workload, measurement.

:class:`SingleHopSimulation` builds a sender, a receiver, two lossy
channels and (for HS) an external false-signal source; drives
back-to-back session lifecycles (install -> Poisson updates -> removal
-> wait until the receiver is empty); and measures exactly the paper's
metrics:

* inconsistency ratio — fraction of time the sender's and receiver's
  state values differ (time-weighted, over the whole run);
* normalized message rate — messages per session divided by the mean
  sender session length, ``M = (messages/sessions) * mu_r``.

Sessions are simulated back-to-back (a new session starts the moment
both sides are empty), which realizes the paper's renewal construction
of merging the absorbing state into the start state.
"""

from __future__ import annotations

import dataclasses

from repro.core.protocols import Protocol
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.messages import Message
from repro.protocols.receiver import SignalingReceiver
from repro.protocols.sender import SignalingSender
from repro.sim.channel import Channel, ChannelConfig, DeliveredMessage, GilbertElliottProcess
from repro.sim.engine import Environment, RestartableTimer
from repro.sim.monitor import StateFractionMonitor, TimeSeriesMonitor
from repro.sim.randomness import RandomStreams, Timer
from repro.sim.stats import ReplicationSet

__all__ = [
    "SIM_ENGINES",
    "SingleHopSimResult",
    "SingleHopSimulation",
    "simulate_replications",
]


@dataclasses.dataclass(frozen=True)
class SingleHopSimResult:
    """Measured outcome of one single-hop simulation run."""

    protocol: Protocol
    sessions: int
    sim_time: float
    inconsistent_time: float
    message_counts: dict[str, int]
    timeout_removals: int
    false_signal_removals: int
    #: Consistency indicator sampled at ``config.sample_times`` (1.0
    #: when sender and receiver agreed at that instant).
    consistency_samples: tuple[float, ...] = ()

    @property
    def inconsistency_ratio(self) -> float:
        """Fraction of time sender and receiver state values differed."""
        if self.sim_time <= 0:
            return 0.0
        return self.inconsistent_time / self.sim_time

    @property
    def total_messages(self) -> int:
        """All signaling messages transmitted (both directions)."""
        return sum(self.message_counts.values())

    @property
    def messages_per_session(self) -> float:
        """``Lambda`` — mean signaling messages per session lifecycle."""
        return self.total_messages / self.sessions

    @property
    def mean_cycle_length(self) -> float:
        """Mean install-to-fully-removed duration (receiver lifetime ``L``)."""
        return self.sim_time / self.sessions

    def normalized_message_rate(self, removal_rate: float) -> float:
        """``M = Lambda * mu_r`` (messages per mean sender session)."""
        if removal_rate <= 0:
            raise ValueError(f"removal_rate must be positive, got {removal_rate}")
        return self.messages_per_session * removal_rate


class SingleHopSimulation:
    """One replication of the single-hop protocol simulation."""

    def __init__(self, config: SingleHopSimConfig) -> None:
        self.config = config
        self.env = Environment()
        streams = RandomStreams(config.seed)
        params = config.params
        protocol = config.protocol

        self._workload_rng = streams.stream("workload")
        self._signal_rng = streams.stream("external-signal")
        self.message_counts: dict[str, int] = {}
        self._sessions_left = config.sessions
        self._ended = False

        channel_config = ChannelConfig(
            loss_rate=params.loss_rate,
            mean_delay=params.delay,
            delay_discipline=config.delay_discipline,
        )
        # One shared bursty-loss process for both directions (the
        # product-chain models assume a single path-wide channel state);
        # it draws from its own named stream so enabling it never shifts
        # the per-channel loss streams.
        loss_process = None
        if config.gilbert is not None:
            loss_process = GilbertElliottProcess(
                config.gilbert.loss_good,
                config.gilbert.loss_bad,
                config.gilbert.good_to_bad,
                config.gilbert.bad_to_good,
                streams.stream("gilbert-channel"),
            )
        self._forward = Channel(
            self.env,
            channel_config,
            streams.stream("forward-channel"),
            self._deliver_to_receiver,
            name="sender->receiver",
            loss_process=loss_process,
        )
        self._reverse = Channel(
            self.env,
            channel_config,
            streams.stream("reverse-channel"),
            self._deliver_to_sender,
            name="receiver->sender",
            loss_process=loss_process,
        )

        def timer(mean: float, key: str) -> Timer:
            return Timer(mean, config.timer_discipline, streams.stream(key))

        self.sender = SignalingSender(
            self.env,
            protocol,
            refresh_timer=timer(params.refresh_interval, "refresh-timer"),
            retransmission_timer=timer(params.retransmission_interval, "retx-timer"),
            transmit=lambda msg: self._transmit(self._forward, msg),
            on_value_change=self._update_consistency,
        )
        self.receiver = SignalingReceiver(
            self.env,
            protocol,
            timeout_timer=timer(params.timeout_interval, "timeout-timer"),
            transmit=lambda msg: self._transmit(self._reverse, msg),
            on_value_change=self._update_consistency,
        )
        self._consistency = StateFractionMonitor(self.env, initial=False)
        # Sender and receiver both start empty: values match.
        self._consistency.set(True)
        self._series_monitor = TimeSeriesMonitor(
            self.env,
            config.sample_times,
            lambda: 1.0 if self._consistency.active else 0.0,
        )

        if protocol is Protocol.HS and params.external_false_signal_rate > 0:
            rate = params.external_false_signal_rate
            RestartableTimer(
                self.env,
                lambda: float(self._signal_rng.exponential(1.0 / rate)),
                lambda: True,
                self.receiver.false_remove,
            ).restart()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _transmit(self, channel: Channel, message: Message) -> None:
        key = message.kind.value
        if message.retransmission:
            key += "_retx"
        self.message_counts[key] = self.message_counts.get(key, 0) + 1
        channel.send(message)

    def _deliver_to_receiver(self, delivered: DeliveredMessage) -> None:
        self.receiver.on_message(delivered.payload)

    def _deliver_to_sender(self, delivered: DeliveredMessage) -> None:
        self.sender.on_message(delivered.payload)

    def _update_consistency(self) -> None:
        self._consistency.set(self.sender.value == self.receiver.value)

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------

    def _start_session(self) -> None:
        if self._sessions_left == 0:
            # A zero-delay end call: the work already queued for this
            # instant still runs before the run stops.
            self.env.call_later(0.0, self._end_run)
            return
        self._sessions_left -= 1
        self.sender.install()
        removal_rate = self.config.params.removal_rate
        self._next_update(float(self._workload_rng.exponential(removal_rate**-1)))

    def _next_update(self, remaining: float) -> None:
        update_rate = self.config.params.update_rate
        if update_rate > 0:
            gap = float(self._workload_rng.exponential(1.0 / update_rate))
            if gap < remaining:
                self.env.call_later(gap, self._update, remaining - gap)
                return
        self.env.call_later(remaining, self._end_session)

    def _update(self, remaining: float) -> None:
        self.sender.update()
        self._next_update(remaining)

    def _end_session(self) -> None:
        self.sender.remove()
        self.receiver.when_empty(self._start_session)

    def _end_run(self) -> None:
        self._ended = True

    def run(self) -> SingleHopSimResult:
        """Execute the configured number of sessions and collect metrics."""
        self.env.call_later(0.0, self._start_session)
        while not self._ended:
            self.env.step()
        sim_time = self.env.now
        return SingleHopSimResult(
            protocol=self.config.protocol,
            sessions=self.config.sessions,
            sim_time=sim_time,
            inconsistent_time=sim_time - self._consistency.active_time(),
            message_counts=dict(self.message_counts),
            timeout_removals=self.receiver.timeout_removals,
            false_signal_removals=self.receiver.false_signal_removals,
            consistency_samples=self._series_monitor.samples(),
        )


#: Engine choices for :func:`simulate_replications`.  ``auto`` takes the
#: vectorized path whenever the config supports it; ``scalar`` forces
#: the event engine; ``vectorized`` demands the fast path and raises on
#: configs it cannot replay.
SIM_ENGINES = ("auto", "scalar", "vectorized")


def simulate_replications(
    config: SingleHopSimConfig,
    replications: int = 10,
    engine: str = "auto",
) -> ReplicationSet:
    """Run independent replications; returns I and M samples.

    Metrics recorded per replication: ``inconsistency_ratio`` and
    ``normalized_message_rate``.  Both engines produce bit-identical
    samples: the vectorized path replays the same per-replication
    random streams in the same draw order (and falls back to the event
    engine lane by lane where it cannot).
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if engine not in SIM_ENGINES:
        raise ValueError(
            f"unknown sim engine {engine!r}; expected one of {SIM_ENGINES}"
        )
    if engine != "scalar":
        from repro.protocols.vectorized import (
            simulate_replications_vectorized,
            supports_vectorized_config,
        )

        supported = supports_vectorized_config(config)
        if engine == "vectorized" and not supported:
            raise ValueError(
                "engine='vectorized' requires SS or SS+ER with deterministic "
                "timers and delay, no Gilbert-Elliott channel, no sample "
                f"grid, and timeout > delay; got protocol={config.protocol.value}"
            )
        if supported:
            results = ReplicationSet()
            for outcome in simulate_replications_vectorized(config, replications):
                results.add("inconsistency_ratio", outcome.inconsistency_ratio)
                results.add(
                    "normalized_message_rate",
                    outcome.normalized_message_rate(config.params.removal_rate),
                )
            return results
    streams = RandomStreams(config.seed)
    results = ReplicationSet()
    for index in range(replications):
        replication_config = config.replace(seed=streams.spawn(index).seed)
        outcome = SingleHopSimulation(replication_config).run()
        results.add("inconsistency_ratio", outcome.inconsistency_ratio)
        results.add(
            "normalized_message_rate",
            outcome.normalized_message_rate(config.params.removal_rate),
        )
    return results
