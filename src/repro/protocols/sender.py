"""The signaling sender: state lifecycle, refreshes, reliable transmission.

The sender owns the authoritative state value (modeled as a
monotonically increasing version number), and implements everything the
five protocols put on the sending side:

* trigger transmission on install/update (all protocols);
* the refresh loop (soft-state protocols);
* ACK-driven retransmission of triggers (SS+RT, SS+RTR, HS);
* explicit removal, optionally retransmitted until acknowledged
  (SS+ER best-effort; SS+RTR and HS reliable);
* re-triggering after a receiver's removal notification (SS+RT,
  SS+RTR, HS — recovery from false removal).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.protocols import Protocol
from repro.protocols.messages import Message, MessageKind
from repro.sim.engine import Environment, RestartableTimer
from repro.sim.randomness import Timer

__all__ = ["SignalingSender"]


class SignalingSender:
    """Sender-side state machine for all five protocols."""

    def __init__(
        self,
        env: Environment,
        protocol: Protocol,
        refresh_timer: Timer,
        retransmission_timer: Timer,
        transmit: Callable[[Message], None],
        on_value_change: Callable[[], None] | None = None,
    ) -> None:
        self.env = env
        self.protocol = protocol
        self.value: int | None = None
        self.version = 0
        self._transmit = transmit
        self._on_value_change = on_value_change or (lambda: None)
        self._acked_version = 0
        self._removal_acked_version = 0
        # The version the removal-retransmission loop repeats.
        self._removal_version = 0
        self._refresh = RestartableTimer(
            env, refresh_timer.draw, self._holds_state, self._send_refresh
        )
        self._trigger_retx = RestartableTimer(
            env, retransmission_timer.draw, self._trigger_unacked, self._retransmit_trigger
        )
        self._removal_retx = RestartableTimer(
            env, retransmission_timer.draw, self._removal_unacked, self._retransmit_removal
        )

    # ------------------------------------------------------------------
    # Lifecycle operations (driven by the session driver)
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Create local state and start installing it remotely."""
        self._removal_retx.cancel()
        self._bump_and_trigger()

    def update(self) -> None:
        """Change the local state value (requires installed state)."""
        if self.value is None:
            raise RuntimeError("cannot update: sender holds no state")
        self._bump_and_trigger()

    def remove(self) -> None:
        """Delete local state; arrange for remote deletion per protocol."""
        if self.value is None:
            raise RuntimeError("cannot remove: sender holds no state")
        removal_version = self.version
        self._set_value(None)
        self._refresh.cancel()
        self._trigger_retx.cancel()
        if self.protocol.explicit_removal:
            self._transmit(Message(MessageKind.REMOVAL, removal_version))
            if self.protocol.reliable_removal:
                self._removal_version = removal_version
                self._removal_retx.restart()
        # Pure soft state (SS, SS+RT): simply stop refreshing; the
        # receiver's state-timeout performs the removal.

    # ------------------------------------------------------------------
    # Message handling (reverse channel)
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Handle an ACK / REMOVAL_ACK / NOTIFY from the receiver."""
        if message.kind is MessageKind.ACK:
            self._acked_version = max(self._acked_version, message.version)
            if self._acked_version >= self.version:
                self._trigger_retx.cancel()
        elif message.kind is MessageKind.REMOVAL_ACK:
            self._removal_acked_version = max(self._removal_acked_version, message.version)
            self._removal_retx.cancel()
        elif message.kind is MessageKind.NOTIFY:
            # The receiver dropped state we still hold: false removal.
            # Recover by re-installing (SS+RT, SS+RTR, HS).
            if self.value is not None and self.protocol.removal_notification:
                self._send_trigger()
        else:
            raise ValueError(f"sender cannot handle {message.kind!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _bump_and_trigger(self) -> None:
        self.version += 1
        self._set_value(self.version)
        self._send_trigger()

    def _set_value(self, value: int | None) -> None:
        self.value = value
        self._on_value_change()

    def _send_trigger(self) -> None:
        self._transmit(Message(MessageKind.TRIGGER, self.version, self.value))
        if self.protocol.uses_refreshes:
            self._refresh.restart()
        if self.protocol.reliable_triggers:
            self._trigger_retx.restart()

    def _holds_state(self) -> bool:
        return self.value is not None

    def _send_refresh(self) -> None:
        self._transmit(Message(MessageKind.REFRESH, self.version, self.value))

    def _trigger_unacked(self) -> bool:
        # Each new version restarts the loop, so it repeats the current one.
        return self.value is not None and self._acked_version < self.version

    def _retransmit_trigger(self) -> None:
        self._transmit(
            Message(MessageKind.TRIGGER, self.version, self.value, retransmission=True)
        )

    def _removal_unacked(self) -> bool:
        return self.value is None and self._removal_acked_version < self._removal_version

    def _retransmit_removal(self) -> None:
        self._transmit(
            Message(MessageKind.REMOVAL, self._removal_version, retransmission=True)
        )
