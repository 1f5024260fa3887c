"""Unit tests for the tree sender and relay nodes over scripted pipes.

A relay with one child is a chain relay; the fan-out-2 cases check that
ACKs and hop-local NOTIFYs act on one child edge only.
"""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.multihop.tree import TreeRelayNode, TreeSender
from repro.protocols.messages import Message, MessageKind
from repro.sim.engine import Environment
from repro.sim.randomness import RandomStreams, Timer, TimerDiscipline

R, T, K, DELAY = 5.0, 15.0, 0.5, 0.03


def triggers(sent: list[Message]) -> list[Message]:
    return [m for m in sent if m.kind is MessageKind.TRIGGER]


class NodeHarness:
    """One relay wired to inspectable upstream and per-child sinks."""

    def __init__(self, protocol: Protocol, children: int = 1):
        self.env = Environment()
        streams = RandomStreams(2)
        self.up: list[Message] = []
        self.children: list[list[Message]] = [[] for _ in range(children)]

        def timer(mean, key):
            return Timer(mean, TimerDiscipline.DETERMINISTIC, streams.stream(key))

        self.node = TreeRelayNode(
            self.env,
            protocol,
            index=1,
            timeout_timer=timer(T, "t"),
            child_transmits=[sink.append for sink in self.children],
            child_retransmission_timers=[timer(K, f"k{c}") for c in range(children)],
            transmit_upstream=self.up.append,
        )

    @property
    def down(self) -> list[Message]:
        return self.children[0]

    def deliver(self, message: Message) -> None:
        self.node.on_message_from_upstream(message)

    def from_child(self, message: Message, slot: int = 0) -> None:
        self.node.on_message_from_child(slot, message)


class TestRelayForwarding:
    def test_trigger_installed_and_forwarded(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        assert harness.node.value == 1
        assert [m.kind for m in harness.down] == [MessageKind.TRIGGER]

    def test_refresh_forwarded_best_effort(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.deliver(Message(MessageKind.REFRESH, 1, 1))
        kinds = [m.kind for m in harness.down]
        assert kinds == [MessageKind.TRIGGER, MessageKind.REFRESH]

    def test_last_node_does_not_forward(self):
        harness = NodeHarness(Protocol.SS_RT, children=0)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=10 * K)
        assert harness.node.value == 1
        assert [m.kind for m in harness.up] == [MessageKind.ACK]

    def test_stale_message_ignored(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 5, 5))
        harness.deliver(Message(MessageKind.REFRESH, 3, 3))
        assert harness.node.value == 5
        assert len(harness.down) == 1  # stale refresh not forwarded

    def test_fan_out_floods_every_child(self):
        harness = NodeHarness(Protocol.SS, children=2)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.deliver(Message(MessageKind.REFRESH, 1, 1))
        for sink in harness.children:
            assert [m.kind for m in sink] == [MessageKind.TRIGGER, MessageKind.REFRESH]


class TestRelayTimeout:
    def test_state_expires_without_refreshes(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=T + 1e-6)
        assert harness.node.value is None
        assert harness.node.timeout_removals == 1

    def test_refresh_restarts_timeout(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))

        def refresh():
            harness.deliver(Message(MessageKind.REFRESH, 1, 1))
            harness.env.call_later(R, refresh)

        harness.env.call_later(R, refresh)
        harness.env.run(until=4 * T)
        assert harness.node.value == 1

    def test_ss_rt_timeout_notifies_upstream(self):
        harness = NodeHarness(Protocol.SS_RT)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=T + 1e-6)
        assert MessageKind.NOTIFY in [m.kind for m in harness.up]

    def test_ss_timeout_does_not_notify(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=T + 1e-6)
        assert MessageKind.NOTIFY not in [m.kind for m in harness.up]

    def test_hs_never_times_out(self):
        harness = NodeHarness(Protocol.HS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=100 * T)
        assert harness.node.value == 1


class TestHopReliability:
    def test_trigger_acked_upstream(self):
        harness = NodeHarness(Protocol.SS_RT)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        assert [m.kind for m in harness.up] == [MessageKind.ACK]

    def test_ss_does_not_ack(self):
        harness = NodeHarness(Protocol.SS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        assert harness.up == []

    def test_unacked_forward_retransmitted(self):
        harness = NodeHarness(Protocol.SS_RT)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.env.run(until=2 * K + 1e-6)
        sent = triggers(harness.down)
        assert len(sent) == 3  # original + 2 retransmissions
        assert sent[1].retransmission

    def test_downstream_ack_stops_retransmission(self):
        harness = NodeHarness(Protocol.SS_RT)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.from_child(Message(MessageKind.ACK, 1))
        harness.env.run(until=10 * K)
        assert len(triggers(harness.down)) == 1

    def test_hop_notify_reinstalls_neighbor(self):
        harness = NodeHarness(Protocol.SS_RT)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.from_child(Message(MessageKind.ACK, 1))
        before = len(triggers(harness.down))
        harness.from_child(Message(MessageKind.NOTIFY, 1))
        assert len(triggers(harness.down)) == before + 1

    def test_ack_on_one_slot_stops_only_that_loop(self):
        harness = NodeHarness(Protocol.SS_RT, children=2)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.from_child(Message(MessageKind.ACK, 1), slot=0)
        harness.env.run(until=2 * K + 1e-6)
        assert len(triggers(harness.children[0])) == 1
        assert len(triggers(harness.children[1])) == 3

    def test_notify_retriggers_only_that_child(self):
        harness = NodeHarness(Protocol.SS_RT, children=2)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        for slot in (0, 1):
            harness.from_child(Message(MessageKind.ACK, 1), slot=slot)
        harness.from_child(Message(MessageKind.NOTIFY, 1), slot=1)
        assert len(triggers(harness.children[0])) == 1
        assert len(triggers(harness.children[1])) == 2


class TestHsFailureFlood:
    def test_false_remove_floods_both_directions(self):
        harness = NodeHarness(Protocol.HS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.from_child(Message(MessageKind.ACK, 1))
        harness.node.false_remove()
        assert harness.node.value is None
        assert MessageKind.NOTIFY in [m.kind for m in harness.up]
        assert MessageKind.REMOVAL in [m.kind for m in harness.down]

    def test_notify_purges_and_propagates_upstream(self):
        harness = NodeHarness(Protocol.HS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.from_child(Message(MessageKind.NOTIFY, 1))
        assert harness.node.value is None
        assert MessageKind.NOTIFY in [m.kind for m in harness.up]

    def test_removal_flood_purges_and_propagates_downstream(self):
        harness = NodeHarness(Protocol.HS)
        harness.deliver(Message(MessageKind.TRIGGER, 1, 1))
        harness.deliver(Message(MessageKind.REMOVAL, 1))
        assert harness.node.value is None
        assert MessageKind.REMOVAL in [m.kind for m in harness.down]


class TestTreeSender:
    def make_sender(self, protocol):
        env = Environment()
        streams = RandomStreams(4)
        sent: list[Message] = []
        sender = TreeSender(
            env,
            protocol,
            refresh_timer=Timer(R, TimerDiscipline.DETERMINISTIC, streams.stream("r")),
            child_transmits=[sent.append],
            child_retransmission_timers=[
                Timer(K, TimerDiscipline.DETERMINISTIC, streams.stream("k"))
            ],
        )
        return env, sender, sent

    def test_start_sends_initial_trigger(self):
        env, sender, sent = self.make_sender(Protocol.SS)
        sender.start()
        assert [m.kind for m in sent] == [MessageKind.TRIGGER]

    def test_double_start_rejected(self):
        env, sender, sent = self.make_sender(Protocol.SS)
        sender.start()
        with pytest.raises(RuntimeError):
            sender.start()

    def test_refreshes_flow(self):
        env, sender, sent = self.make_sender(Protocol.SS)
        sender.start()
        env.run(until=3 * R + 1e-6)
        refreshes = [m for m in sent if m.kind is MessageKind.REFRESH]
        assert len(refreshes) == 3

    def test_update_bumps_version(self):
        env, sender, sent = self.make_sender(Protocol.SS)
        sender.start()
        sender.update()
        assert sender.version == 2
        assert triggers(sent)[-1].version == 2

    def test_hs_retransmits_until_acked(self):
        env, sender, sent = self.make_sender(Protocol.HS)
        sender.start()
        env.run(until=K + 1e-6)
        assert len(triggers(sent)) == 2
        sender.on_message_from_child(0, Message(MessageKind.ACK, 1))
        env.run(until=10 * K)
        assert len(triggers(sent)) == 2

    def test_notify_re_triggers(self):
        env, sender, sent = self.make_sender(Protocol.HS)
        sender.start()
        sender.on_message_from_child(0, Message(MessageKind.ACK, 1))
        before = len(triggers(sent))
        sender.on_message_from_child(0, Message(MessageKind.NOTIFY, 1))
        assert len(triggers(sent)) == before + 1
