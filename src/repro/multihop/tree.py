"""The multi-hop simulation harness — one relay per node, per-edge channels.

Runs the §III-B protocols over a rooted
:class:`~repro.core.multihop.topology.Topology`: the sender at the
root, one relay per non-root node, and **one independent lossy channel
pair per edge** (forward toward the leaves, reverse toward the root).
The relay chain of §III-B is the unary tree ``Topology.chain(N)``, which
:mod:`repro.multihop.chain` runs through this harness.  At each node:

* **SS** — state-carrying messages are forwarded downstream best-effort;
  each relay holds a state-timeout timer; refreshes originate at the
  sender only and are relayed hop by hop.
* **SS+RT** — adds hop-by-hop reliable triggers: a node retransmits a
  TRIGGER toward each unacknowledged child every ``K`` until that
  child's hop-local ACK arrives (the per-edge frontier the tree CTMC
  tracks).  A relay whose state times out sends a hop-local NOTIFY
  upstream so its parent re-installs it (the notification mechanism of
  §II applied per hop).
* **HS** — reliable triggers only; no refreshes or timeouts.  A spurious
  external failure signal at a relay purges its state, floods a REMOVAL
  downstream, and sends a NOTIFY upstream toward the sender, which
  re-triggers installation (the model's ``F``-state excursion).

Random streams are keyed by edge: the edge into node ``c`` is edge
``e = c - 1``, its channels draw from ``fwd-{e}`` and ``rev-{e}``, and
its parent's retransmission timer from ``retx-{e}``.

Measured outputs mirror the analytic
:class:`~repro.core.multihop.tree_model.TreeSolution` metrics:
per-node inconsistency, the fraction of time any node is inconsistent
(eq. 12's ``I``) and per-link transmissions per second.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator

from repro.core.markov import ordered_sum
from repro.core.multihop.topology import Topology
from repro.core.protocols import Protocol
from repro.faults.schedule import NodeCrash
from repro.multihop.config import MultiHopSimConfig
from repro.protocols.messages import Message, MessageKind
from repro.sim.channel import Channel, ChannelConfig, GilbertElliottProcess
from repro.sim.engine import Environment, RestartableTimer
from repro.sim.monitor import StateFractionMonitor, TimeSeriesMonitor
from repro.sim.randomness import RandomStreams, Timer
from repro.sim.stats import ReplicationSet

__all__ = [
    "TreeRelayNode",
    "TreeSender",
    "TreeSimResult",
    "TreeSimulation",
    "simulate_tree_replications",
]


@dataclasses.dataclass(frozen=True)
class TreeSimResult:
    """Measured outcome of one tree simulation run."""

    protocol: Protocol
    topology: Topology
    measured_time: float
    node_inconsistent_time: list[float]
    any_inconsistent_time: float
    link_transmissions: int
    #: Consistency indicator sampled at ``config.sample_times`` (1.0
    #: when every non-root node agreed with the sender — the tree
    #: CTMC's fully-consistent state; the complement of the indicator
    #: :attr:`inconsistency_ratio` averages).
    consistency_samples: tuple[float, ...] = ()

    @property
    def inconsistency_ratio(self) -> float:
        """Fraction of time any non-root node disagreed with the sender.

        This is ``1 - pi(all consistent)``, the ``I`` of
        :class:`~repro.core.multihop.tree_model.TreeSolution`: an
        interior node's outage counts even while every leaf agrees.
        """
        if self.measured_time <= 0:
            return 0.0
        return self.any_inconsistent_time / self.measured_time

    @property
    def message_rate(self) -> float:
        """Per-link transmissions per second, summed over all links."""
        if self.measured_time <= 0:
            return 0.0
        return self.link_transmissions / self.measured_time

    def node_inconsistency(self, node: int) -> float:
        """Fraction of time non-root ``node`` was inconsistent."""
        if not 1 <= node <= self.topology.num_edges:
            raise ValueError(
                f"node must be in [1, {self.topology.num_edges}], got {node}"
            )
        if self.measured_time <= 0:
            return 0.0
        return self.node_inconsistent_time[node - 1] / self.measured_time

    def leaf_profile(self) -> list[float]:
        """Per-leaf inconsistency fractions, in leaf index order."""
        return [self.node_inconsistency(leaf) for leaf in self.topology.leaves()]

    @property
    def mean_leaf_inconsistency(self) -> float:
        """Average per-leaf inconsistency."""
        profile = self.leaf_profile()
        return ordered_sum(profile) / len(profile)


class _ReliableHop:
    """Retransmit the newest TRIGGER downstream until the hop ACKs it."""

    def __init__(
        self,
        env: Environment,
        retransmission_timer: Timer,
        transmit: Callable[[Message], None],
    ) -> None:
        self._transmit = transmit
        self._acked_version = 0
        self._current: Message | None = None
        self._retx = RestartableTimer(
            env, retransmission_timer.draw, self._unacked, self._retransmit
        )

    def offer(self, message: Message) -> None:
        """Send ``message`` downstream reliably (supersedes older ones)."""
        self._current = message
        self._transmit(message)
        if self._unacked():
            self._retx.restart()

    def on_ack(self, version: int) -> None:
        """Stop retransmitting once the downstream hop acknowledged."""
        self._acked_version = max(self._acked_version, version)
        if self._current is not None and self._acked_version >= self._current.version:
            self.cancel()

    def cancel(self) -> None:
        """Abort any in-progress retransmission loop."""
        self._retx.cancel()

    def _unacked(self) -> bool:
        # Each unacknowledged offer restarts the loop, so it repeats the
        # newest message.
        return self._acked_version < self._current.version

    def _retransmit(self) -> None:
        current = self._current
        self._transmit(
            Message(current.kind, current.version, current.value, retransmission=True)
        )


class _FanOut:
    """What the sender and the relays share: state flooded to each child
    edge, with one reliable hop per child under reliable triggers."""

    def __init__(
        self,
        env: Environment,
        protocol: Protocol,
        child_transmits: list,
        child_retransmission_timers: list[Timer],
        on_value_change=None,
    ) -> None:
        self.env = env
        self.protocol = protocol
        self._transmits = list(child_transmits)
        self._on_value_change = on_value_change or (lambda: None)
        self._hops: list[_ReliableHop | None] = [
            _ReliableHop(env, timer, transmit) if protocol.reliable_triggers else None
            for timer, transmit in zip(child_retransmission_timers, child_transmits)
        ]

    def _on_ack(self, child_slot: int, version: int) -> None:
        hop = self._hops[child_slot]
        if hop is not None:
            hop.on_ack(version)

    def _forward_state(self, message: Message, only_slot: int | None = None) -> None:
        slots = range(len(self._transmits)) if only_slot is None else (only_slot,)
        for slot in slots:
            forwarded = Message(message.kind, message.version, message.value)
            hop = self._hops[slot]
            if hop is not None and message.kind is MessageKind.TRIGGER:
                hop.offer(forwarded)
            else:
                self._transmits[slot](forwarded)


class TreeSender(_FanOut):
    """The root: owns the value, triggers and refreshes every child edge."""

    def __init__(
        self,
        env: Environment,
        protocol: Protocol,
        refresh_timer: Timer,
        child_transmits: list,
        child_retransmission_timers: list[Timer],
        on_value_change=None,
    ) -> None:
        super().__init__(
            env, protocol, child_transmits, child_retransmission_timers, on_value_change
        )
        self.version = 1
        self.value: int = 1
        self._refresh_timer = refresh_timer
        self._started = False

    def start(self) -> None:
        """Send the initial triggers and start the refresh flood.

        Separate from ``__init__`` so the harness can finish wiring
        channels before the first message is transmitted.
        """
        if self._started:
            raise RuntimeError("tree sender already started")
        self._started = True
        self._send_triggers()
        if self.protocol.uses_refreshes:
            RestartableTimer(
                self.env, self._refresh_timer.draw, lambda: True, self._send_refreshes
            ).restart()

    def update(self) -> None:
        """Poisson workload: change the state value."""
        self.version += 1
        self.value = self.version
        self._on_value_change()
        self._send_triggers()

    def on_message_from_child(self, child_slot: int, message: Message) -> None:
        """Handle ACKs and NOTIFYs arriving from one child edge."""
        if message.kind is MessageKind.ACK:
            self._on_ack(child_slot, message.version)
        elif message.kind is MessageKind.NOTIFY:
            # A receiver dropped state somewhere below this child:
            # re-install by re-triggering the current value.
            self._send_triggers()
        else:
            raise ValueError(f"tree sender cannot handle {message.kind!r}")

    def _send_triggers(self) -> None:
        self._forward_state(Message(MessageKind.TRIGGER, self.version, self.value))

    def _send_refreshes(self) -> None:
        self._forward_state(Message(MessageKind.REFRESH, self.version, self.value))


class TreeRelayNode(_FanOut):
    """A non-root node: holds state, floods it to every child edge."""

    def __init__(
        self,
        env: Environment,
        protocol: Protocol,
        index: int,
        timeout_timer: Timer,
        child_transmits: list,
        child_retransmission_timers: list[Timer],
        transmit_upstream,
        on_value_change=None,
    ) -> None:
        super().__init__(
            env, protocol, child_transmits, child_retransmission_timers, on_value_change
        )
        self.index = index
        self.value: int | None = None
        self.version = 0
        self.crashed = False
        self.timeout_removals = 0
        self.false_signal_removals = 0
        self._transmit_up = transmit_upstream
        self._timeout = RestartableTimer(
            env, timeout_timer.draw, self._holds_state, self._time_out
        )

    # -- upstream-facing input (messages travelling toward the leaves) --

    def on_message_from_upstream(self, message: Message) -> None:
        """Handle TRIGGER / REFRESH / REMOVAL arriving from the parent."""
        if self.crashed:
            return
        if message.carries_state:
            if message.version >= self.version:
                self._install(message.version, message.value)
                if self.protocol.reliable_triggers and message.kind is MessageKind.TRIGGER:
                    self._transmit_up(Message(MessageKind.ACK, message.version))
                self._forward_state(message)
        elif message.kind is MessageKind.REMOVAL:
            # HS purge flood after an external failure signal.
            if message.version >= self.version and self.value is not None:
                self.version = max(self.version, message.version)
                self._remove()
            for transmit in self._transmits:
                transmit(message)
        else:
            raise ValueError(f"tree relay cannot handle {message.kind!r} from upstream")

    # -- downstream-facing input (messages travelling toward the root) --

    def on_message_from_child(self, child_slot: int, message: Message) -> None:
        """Handle ACK / NOTIFY arriving from one child edge."""
        if self.crashed:
            return
        if message.kind is MessageKind.ACK:
            self._on_ack(child_slot, message.version)
        elif message.kind is MessageKind.NOTIFY:
            if self.protocol is Protocol.HS:
                # Failure flood: purge local state and keep propagating
                # toward the sender, which will re-trigger.
                if self.value is not None:
                    self._remove()
                self._transmit_up(message)
            else:
                # Hop-local notification: re-install just that child.
                if self.value is not None:
                    self._forward_state(
                        Message(MessageKind.TRIGGER, self.version, self.value),
                        only_slot=child_slot,
                    )
        else:
            raise ValueError(f"tree relay cannot handle {message.kind!r} from child")

    def false_remove(self) -> None:
        """HS external failure signal fired spuriously at this node."""
        if self.crashed or self.value is None:
            return
        self.false_signal_removals += 1
        self._remove()
        self._transmit_up(Message(MessageKind.NOTIFY, self.version))
        removal = Message(MessageKind.REMOVAL, self.version)
        for transmit in self._transmits:
            transmit(removal)

    def crash(self) -> None:
        """Node failure with state loss (see :mod:`repro.faults.schedule`).

        All installed soft state, timers and per-child retransmission
        loops are dropped *silently* — a dead node cannot signal its
        neighbors — and incoming messages are discarded until
        :meth:`restart`.  Resetting ``version`` to 0 means any state
        message seen after the restart re-installs.
        """
        self.crashed = True
        self.version = 0
        self._timeout.cancel()
        for hop in self._hops:
            if hop is not None:
                hop.cancel()
        if self.value is not None:
            self.value = None
            self._on_value_change()

    def restart(self) -> None:
        """Resume message processing with empty state after a crash."""
        self.crashed = False

    # -- internals ------------------------------------------------------

    def _install(self, version: int, value: int | None) -> None:
        self.version = version
        self.value = value
        self._on_value_change()
        if self.protocol.uses_state_timeout:
            self._timeout.restart()

    def _remove(self) -> None:
        self.value = None
        self._on_value_change()
        self._timeout.cancel()
        for hop in self._hops:
            if hop is not None:
                hop.cancel()

    def _holds_state(self) -> bool:
        return self.value is not None

    def _time_out(self) -> None:
        self.timeout_removals += 1
        self._remove()
        if self.protocol.removal_notification:
            self._transmit_up(Message(MessageKind.NOTIFY, self.version))


class TreeSimulation:
    """One replication of the multi-hop simulation over a topology."""

    def __init__(self, config: MultiHopSimConfig, topology: Topology) -> None:
        if config.params.hops != topology.num_edges:
            raise ValueError(
                f"params.hops ({config.params.hops}) must equal the topology's "
                f"edge count ({topology.num_edges})"
            )
        self.config = config
        self.topology = topology
        self.env = Environment()
        params = config.params
        protocol = config.protocol
        streams = RandomStreams(config.seed)
        self._workload_rng = streams.stream("workload")
        self._signal_rng = streams.stream("external-signal")
        self.link_transmissions = 0

        channel_config = ChannelConfig(
            loss_rate=params.loss_rate,
            mean_delay=params.delay,
            delay_discipline=config.delay_discipline,
        )
        # One bursty-loss process shared by every edge channel (a single
        # tree-wide channel state, matching the product-chain models),
        # drawing from its own named stream so enabling it never shifts
        # the per-channel loss streams.
        self._loss_process = None
        if config.gilbert is not None:
            self._loss_process = GilbertElliottProcess(
                config.gilbert.loss_good,
                config.gilbert.loss_bad,
                config.gilbert.good_to_bad,
                config.gilbert.bad_to_good,
                streams.stream("gilbert-channel"),
            )

        def timer(mean: float, key: str) -> Timer:
            return Timer(mean, config.timer_discipline, streams.stream(key))

        # Per-edge channel pairs, keyed by the child node; wired after
        # the nodes exist, so transmits go through one-slot indirection.
        forward_channels: dict[int, Channel] = {}
        reverse_channels: dict[int, Channel] = {}

        def make_transmit(channels: dict[int, Channel], child: int):
            def transmit(message: Message) -> None:
                self.link_transmissions += 1
                channels[child].send(message)

            return transmit

        def retransmission_timers(node: int) -> list[Timer]:
            return [
                timer(params.retransmission_interval, f"retx-{child - 1}")
                for child in topology.children(node)
            ]

        def child_transmits(node: int) -> list:
            return [
                make_transmit(forward_channels, child)
                for child in topology.children(node)
            ]

        # Index order: the HS false-signal sources below share one
        # stream, so their start order fixes which node each draw hits.
        self.nodes: dict[int, TreeRelayNode] = {
            node: TreeRelayNode(
                self.env,
                protocol,
                index=node,
                timeout_timer=timer(params.timeout_interval, f"timeout-{node}"),
                child_transmits=child_transmits(node),
                child_retransmission_timers=retransmission_timers(node),
                transmit_upstream=make_transmit(reverse_channels, node),
                on_value_change=self._refresh_consistency,
            )
            for node in range(1, topology.num_nodes)
        }
        self.sender = TreeSender(
            self.env,
            protocol,
            refresh_timer=timer(params.refresh_interval, "refresh"),
            child_transmits=child_transmits(0),
            child_retransmission_timers=retransmission_timers(0),
            on_value_change=self._refresh_consistency,
        )

        # Channels: edge into `child`, forward (parent -> child) and
        # reverse (child -> parent).  Reverse deliveries carry the
        # child's slot index at the parent so per-edge ACK loops stop.
        owners: dict[int, TreeSender | TreeRelayNode] = {0: self.sender, **self.nodes}
        for child, node in self.nodes.items():
            parent = topology.parent(child)
            slot = topology.children(parent).index(child)
            forward_channels[child] = Channel(
                self.env,
                channel_config,
                streams.stream(f"fwd-{child - 1}"),
                (lambda n: lambda d: n.on_message_from_upstream(d.payload))(node),
                name=f"edge-{child}-fwd",
                loss_process=self._loss_process,
            )
            reverse_channels[child] = Channel(
                self.env,
                channel_config,
                streams.stream(f"rev-{child - 1}"),
                (lambda p, s: lambda d: p.on_message_from_child(s, d.payload))(
                    owners[parent], slot
                ),
                name=f"edge-{child}-rev",
                loss_process=self._loss_process,
            )

        if config.faults is not None and not config.faults.is_empty:
            self._install_faults(forward_channels, reverse_channels)

        self._node_monitors = [
            StateFractionMonitor(self.env, initial=True) for _ in self.nodes
        ]
        self._any_monitor = StateFractionMonitor(self.env, initial=True)
        # Created after the fault schedules so a sample scheduled at a
        # fault instant observes the post-fault state (FIFO tie-break).
        self._series_monitor = TimeSeriesMonitor(
            self.env,
            config.sample_times,
            lambda: 0.0 if self._any_monitor.active else 1.0,
        )
        self.sender.start()
        self._refresh_consistency()

        if protocol is Protocol.HS and params.external_false_signal_rate > 0:
            rate = params.external_false_signal_rate
            for node in self.nodes.values():
                RestartableTimer(
                    self.env,
                    lambda: float(self._signal_rng.exponential(1.0 / rate)),
                    lambda: True,
                    node.false_remove,
                ).restart()

    # -- fault injection (see repro.faults.schedule) --------------------

    def _install_faults(
        self,
        forward_channels: dict[int, Channel],
        reverse_channels: dict[int, Channel],
    ) -> None:
        faults = self.config.faults
        # Each schedule starts with a zero-delay call, and each of its
        # steps schedules the next one.
        for flap in faults.flaps:
            channels = (forward_channels[flap.link], reverse_channels[flap.link])
            windows = flap.windows(self.config.horizon)
            self.env.call_later(0.0, self._next_flap, windows, channels)
        for crash in faults.crashes:
            self.env.call_later(0.0, self._schedule_crash, crash, self.nodes[crash.node])

    def _next_flap(
        self, windows: Iterator[tuple[float, float]], channels: tuple[Channel, ...]
    ) -> None:
        window = next(windows, None)
        if window is not None:
            down_at, up_at = window
            self.env.call_later(
                down_at - self.env.now, self._flap_down, windows, channels, up_at
            )

    def _flap_down(
        self,
        windows: Iterator[tuple[float, float]],
        channels: tuple[Channel, ...],
        up_at: float,
    ) -> None:
        for channel in channels:
            channel.down = True
        self.env.call_later(up_at - self.env.now, self._flap_up, windows, channels)

    def _flap_up(
        self, windows: Iterator[tuple[float, float]], channels: tuple[Channel, ...]
    ) -> None:
        for channel in channels:
            channel.down = False
        self._next_flap(windows, channels)

    def _schedule_crash(self, crash: NodeCrash, node: TreeRelayNode) -> None:
        self.env.call_later(
            crash.at - self.env.now, self._crash, node, crash.restart_after
        )

    def _crash(self, node: TreeRelayNode, restart_after: float) -> None:
        node.crash()
        self.env.call_later(restart_after, node.restart)

    # -- monitors and workload ------------------------------------------

    def _refresh_consistency(self) -> None:
        any_inconsistent = False
        for node, monitor in zip(self.nodes.values(), self._node_monitors):
            inconsistent = node.value != self.sender.value
            monitor.set(inconsistent)
            any_inconsistent = any_inconsistent or inconsistent
        self._any_monitor.set(any_inconsistent)

    # -- run ------------------------------------------------------------

    def run(self) -> TreeSimResult:
        """Simulate until the horizon; measurement starts after warmup."""
        return self._measure()

    def _measure(self) -> TreeSimResult:
        # Shared by both harness front ends; the benchmark tracer wraps
        # each ``run`` method, so neither may call the other's.
        rate = self.config.params.update_rate
        RestartableTimer(
            self.env,
            lambda: float(self._workload_rng.exponential(1.0 / rate)),
            lambda: True,
            self.sender.update,
        ).restart()
        if self.config.warmup > 0:
            self.env.run(until=self.config.warmup)
        for monitor in self._node_monitors:
            monitor.reset()
        self._any_monitor.reset()
        transmissions_at_warmup = self.link_transmissions
        self.env.run(until=self.config.horizon)
        return TreeSimResult(
            protocol=self.config.protocol,
            topology=self.topology,
            measured_time=self.config.horizon - self.config.warmup,
            node_inconsistent_time=[m.active_time() for m in self._node_monitors],
            any_inconsistent_time=self._any_monitor.active_time(),
            link_transmissions=self.link_transmissions - transmissions_at_warmup,
            consistency_samples=self._series_monitor.samples(),
        )


def simulate_tree_replications(
    config: MultiHopSimConfig,
    topology: Topology,
    replications: int = 5,
) -> ReplicationSet:
    """Run independent replications; records I, message rate, mean leaf."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    streams = RandomStreams(config.seed)
    results = ReplicationSet()
    for index in range(replications):
        replication = config.replace(seed=streams.spawn(index).seed)
        outcome = TreeSimulation(replication, topology).run()
        results.add("inconsistency_ratio", outcome.inconsistency_ratio)
        results.add("message_rate", outcome.message_rate)
        results.add("mean_leaf_inconsistency", outcome.mean_leaf_inconsistency)
    return results
