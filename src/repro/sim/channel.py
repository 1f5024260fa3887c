"""The signaling channel: Bernoulli loss plus delay, no reordering.

The paper's network model (§III): the sender and receiver "communicate
over a network that can delay and lose, but not reorder, messages".
Losses are independent Bernoulli trials with parameter ``p_l``; the
channel delay has mean ``delta`` and is either fixed or exponential.

Non-reordering is enforced explicitly: each message's delivery time is
clamped to be no earlier than the previously accepted message's delivery
time, which makes exponential delays safe to use.

Two fault extensions (see :mod:`repro.faults`):

* a :class:`GilbertElliottProcess` can replace the constant loss rate
  with a two-state bursty modulator, evolved lazily on the channel's
  virtual clock from its own dedicated random stream;
* a ``down`` flag models a link outage — messages sent while down are
  lost *deterministically*, consuming no randomness, so flap schedules
  never perturb the loss stream.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.sim.engine import Environment
from repro.sim.randomness import TimerDiscipline

__all__ = ["Channel", "ChannelConfig", "DeliveredMessage", "GilbertElliottProcess"]


@dataclasses.dataclass(frozen=True)
class ChannelConfig:
    """Loss/delay parameters of one directed channel.

    ``loss_rate == 1.0`` (certain loss) and ``mean_delay == 0.0``
    (instantaneous delivery) are admitted edge cases: the former is the
    Gilbert-Elliott bad-state extreme, the latter an idealized local
    link.
    """

    loss_rate: float
    mean_delay: float
    delay_discipline: TimerDiscipline = TimerDiscipline.DETERMINISTIC

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        if self.mean_delay < 0:
            raise ValueError(f"mean_delay must be non-negative, got {self.mean_delay}")


class GilbertElliottProcess:
    """A stateful two-state (good/bad) loss modulator on virtual time.

    The channel state is a CTMC flipping at rates ``good_to_bad`` /
    ``bad_to_good`` (a rate of 0 pins the state forever).  Evolution is
    *lazy*: holding times are drawn from ``rng`` (a dedicated named
    stream — never the channel's loss stream) only as queries advance
    the clock, so a degenerate process (``loss_good == loss_bad``)
    leaves every other stream untouched and the channel reproduces the
    i.i.d. Bernoulli loss sequence bit for bit.

    One process may be shared by several channels (the product-chain
    models assume a single path-wide channel state), as long as all
    queries come from the same virtual clock.
    """

    def __init__(
        self,
        loss_good: float,
        loss_bad: float,
        good_to_bad: float,
        bad_to_good: float,
        rng: np.random.Generator,
    ) -> None:
        for name, value in (("loss_good", loss_good), ("loss_bad", loss_bad)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name, value in (
            ("good_to_bad", good_to_bad),
            ("bad_to_good", bad_to_good),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self._good_to_bad = good_to_bad
        self._bad_to_good = bad_to_good
        self._rng = rng
        self._bad = False
        self._next_flip = self._holding_time()

    def _holding_time(self) -> float:
        rate = self._bad_to_good if self._bad else self._good_to_bad
        if rate <= 0.0:
            return float("inf")
        return float(self._rng.exponential(1.0 / rate))

    def _advance(self, now: float) -> None:
        while self._next_flip <= now:
            flip_at = self._next_flip
            self._bad = not self._bad
            self._next_flip = flip_at + self._holding_time()

    def is_bad(self, now: float) -> bool:
        """Whether the channel is in the bad state at virtual time ``now``."""
        self._advance(now)
        return self._bad

    def loss_rate_at(self, now: float) -> float:
        """The loss probability in effect at virtual time ``now``."""
        self._advance(now)
        return self._loss_bad if self._bad else self._loss_good


@dataclasses.dataclass(frozen=True)
class DeliveredMessage:
    """Record of one message handed to a receiver."""

    payload: Any
    sent_at: float
    delivered_at: float


class Channel:
    """A unidirectional lossy channel delivering to a callback.

    ``send`` never blocks the sender (signaling messages are datagrams).
    Statistics (``sent``, ``lost``, ``delivered``) are kept for the
    message-overhead metrics.
    """

    def __init__(
        self,
        env: Environment,
        config: ChannelConfig,
        rng: np.random.Generator,
        deliver: Callable[[DeliveredMessage], None],
        name: str = "channel",
        loss_process: GilbertElliottProcess | None = None,
    ) -> None:
        self.env = env
        self.config = config
        self.name = name
        self._rng = rng
        self._deliver = deliver
        self._loss_process = loss_process
        self._last_delivery_time = -float("inf")
        self.down = False
        self.sent = 0
        self.lost = 0
        self.delivered = 0

    def send(self, payload: Any) -> bool:
        """Transmit ``payload``; returns False when the channel drops it.

        While the channel is ``down`` (a scheduled link outage) every
        message is lost deterministically — no random draw is consumed,
        so fault schedules cannot shift the loss stream of the surviving
        traffic.  A random drop consumes the loss draw only; a delivered
        message also draws its delay.
        """
        self.sent += 1
        if self.down:
            self.lost += 1
            return False
        loss_rate = (
            self._loss_process.loss_rate_at(self.env.now)
            if self._loss_process is not None
            else self.config.loss_rate
        )
        if self._rng.random() < loss_rate:
            self.lost += 1
            return False
        delay = self._draw_delay()
        sent_at = self.env.now
        deliver_at = max(sent_at + delay, self._last_delivery_time)
        self._last_delivery_time = deliver_at
        self.env.call_later(deliver_at - sent_at, self._on_arrival, payload, sent_at)
        return True

    def _draw_delay(self) -> float:
        if self.config.delay_discipline is TimerDiscipline.DETERMINISTIC:
            return self.config.mean_delay
        return float(self._rng.exponential(self.config.mean_delay))

    def _on_arrival(self, payload: Any, sent_at: float) -> None:
        self.delivered += 1
        self._deliver(
            DeliveredMessage(payload=payload, sent_at=sent_at, delivered_at=self.env.now)
        )
