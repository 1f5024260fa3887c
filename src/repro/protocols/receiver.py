"""The signaling receiver: state holding, timeout, ACKs, notifications.

The receiver installs whatever state the newest state-carrying message
reports, expires it when refreshes stop arriving (soft-state
protocols), acknowledges reliably-transmitted messages, and — for
protocols with a removal-notification mechanism — tells the sender when
it drops state, enabling recovery from false removals.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.protocols import Protocol
from repro.protocols.messages import Message, MessageKind
from repro.sim.engine import Environment, RestartableTimer
from repro.sim.randomness import Timer

__all__ = ["SignalingReceiver"]


class SignalingReceiver:
    """Receiver-side state machine for all five protocols."""

    def __init__(
        self,
        env: Environment,
        protocol: Protocol,
        timeout_timer: Timer,
        transmit: Callable[[Message], None],
        on_value_change: Callable[[], None] | None = None,
    ) -> None:
        self.env = env
        self.protocol = protocol
        self.value: int | None = None
        self.version = 0
        self.timeout_removals = 0
        self.false_signal_removals = 0
        self._transmit = transmit
        self._on_value_change = on_value_change or (lambda: None)
        self._timeout = RestartableTimer(
            env, timeout_timer.draw, self._holds_state, self._time_out
        )
        self._empty_waiters: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Message handling (forward channel)
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        """Handle a TRIGGER / REFRESH / REMOVAL from the sender."""
        if message.carries_state:
            if message.version >= self.version:
                self._install(message.version, message.value)
                if self.protocol.reliable_triggers and message.kind is MessageKind.TRIGGER:
                    self._transmit(Message(MessageKind.ACK, message.version))
        elif message.kind is MessageKind.REMOVAL:
            if message.version >= self.version:
                self.version = max(self.version, message.version)
                if self.value is not None:
                    self._remove()
                if self.protocol.reliable_removal:
                    self._transmit(Message(MessageKind.REMOVAL_ACK, message.version))
        else:
            raise ValueError(f"receiver cannot handle {message.kind!r}")

    def false_remove(self) -> None:
        """External failure signal fired spuriously (HS): drop state.

        The receiver notifies the sender so a still-alive sender can
        re-install (paper §II, "false notification ... repaired by
        having the signaling receiver notify the signaling sender").
        """
        if self.value is None:
            return
        self.false_signal_removals += 1
        self._remove()
        if self.protocol.removal_notification:
            self._transmit(Message(MessageKind.NOTIFY, self.version))

    def when_empty(self, fn: Callable[[], None]) -> None:
        """Call ``fn`` once no state is held (at once if none is held now).

        ``fn`` runs as a zero-delay scheduled call, behind the work
        already queued for the instant the receiver empties.
        """
        if self.value is None:
            self.env.call_later(0.0, fn)
        else:
            self._empty_waiters.append(fn)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

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
        waiters, self._empty_waiters = self._empty_waiters, []
        for fn in waiters:
            self.env.call_later(0.0, fn)

    def _holds_state(self) -> bool:
        return self.value is not None

    def _time_out(self) -> None:
        self.timeout_removals += 1
        self._remove()
        if self.protocol.removal_notification:
            self._transmit(Message(MessageKind.NOTIFY, self.version))
