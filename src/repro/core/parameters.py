"""Model parameters and the paper's default parameterizations.

The symbols follow §III-A.1 of the paper:

========================  =====================================================
``update_rate``           ``lambda_u`` — signaling state update rate (1/s)
``removal_rate``          ``mu_r`` — 1/mean signaling-state lifetime (1/s)
``loss_rate``             ``p_l`` — Bernoulli per-message channel loss
``delay``                 ``Delta`` — mean one-way channel delay (s)
``refresh_interval``      ``R`` — soft-state refresh timer (s)
``timeout_interval``      ``T`` — soft-state state-timeout timer (s)
``retransmission_interval``  ``K`` — reliable-transmission timer (s)
``external_false_signal_rate``  ``lambda_x`` — HS false external signal (1/s)
========================  =====================================================

Two default parameter sets are provided, decoded from the paper (the
published PDF's digits are glyph-garbled;
:func:`repro.analysis.sensitivity.plausible_decodings` lists the
contested readings, and the ``claims`` verb checks the paper's
conclusions across them):

* :func:`kazaa_defaults` — the single-hop Kazaa peer/supernode scenario
  of §III-A.3;
* :func:`reservation_defaults` — the multi-hop bandwidth-reservation
  scenario of §III-B.2 (20 hops).
"""

from __future__ import annotations

import dataclasses

__all__ = [
    "MultiHopParameters",
    "SignalingParameters",
    "kazaa_defaults",
    "reservation_defaults",
]


@dataclasses.dataclass(frozen=True)
class SignalingParameters:
    """Parameters of the single-hop signaling model (paper §III-A)."""

    loss_rate: float = 0.02
    delay: float = 0.03
    update_rate: float = 1.0 / 20.0
    removal_rate: float = 1.0 / 1800.0
    refresh_interval: float = 5.0
    timeout_interval: float = 15.0
    retransmission_interval: float = 0.12
    external_false_signal_rate: float = 1e-4

    def __post_init__(self) -> None:
        # loss_rate == 1.0 is admitted for the Gilbert-Elliott bad-state
        # slice (repro.core.gilbert evaluates per-channel rates at the
        # bad-state loss, which may be certain loss).
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        for name in (
            "delay",
            "refresh_interval",
            "timeout_interval",
            "retransmission_interval",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("update_rate", "removal_rate", "external_false_signal_rate"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def mean_session_length(self) -> float:
        """``1/mu_r`` — mean signaling-state lifetime at the sender."""
        if self.removal_rate == 0:
            return float("inf")
        return 1.0 / self.removal_rate

    @property
    def false_removal_rate(self) -> float:
        """``lambda_f = p_l^(T/R) / T`` (paper §III-A.1, SS model).

        A false (timeout-driven) removal requires every refresh within a
        timeout interval — ``T/R`` of them on average — to be lost.
        """
        if self.loss_rate == 0.0:
            return 0.0
        exponent = self.timeout_interval / self.refresh_interval
        return (self.loss_rate**exponent) / self.timeout_interval

    def replace(self, **changes: float) -> "SignalingParameters":
        """A copy with the given fields changed (sweep helper)."""
        return dataclasses.replace(self, **changes)

    def with_coupled_timers(
        self,
        refresh_interval: float,
        timeout_multiple: float = 3.0,
    ) -> "SignalingParameters":
        """Change ``R`` while keeping ``T = timeout_multiple * R``.

        The paper's refresh-timer sweeps (Figs. 6, 7, 9, 12, 19) hold
        ``T = 3R`` as the timers vary.
        """
        return self.replace(
            refresh_interval=refresh_interval,
            timeout_interval=timeout_multiple * refresh_interval,
        )


@dataclasses.dataclass(frozen=True)
class MultiHopParameters:
    """Parameters of the multi-hop signaling model (paper §III-B).

    Hops are homogeneous: every hop has the same loss rate and delay,
    and losses are independent (paper §III-B.1).  The sender-side state
    lifetime is infinite in this regime; only updates drive the chain.
    """

    hops: int = 20
    loss_rate: float = 0.02
    delay: float = 0.03
    update_rate: float = 1.0 / 60.0
    refresh_interval: float = 5.0
    timeout_interval: float = 15.0
    retransmission_interval: float = 0.12
    external_false_signal_rate: float = 0.02**3

    def __post_init__(self) -> None:
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        for name in (
            "delay",
            "refresh_interval",
            "timeout_interval",
            "retransmission_interval",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.update_rate <= 0:
            raise ValueError(f"update_rate must be positive, got {self.update_rate}")
        if self.external_false_signal_rate < 0:
            raise ValueError(
                "external_false_signal_rate must be non-negative, "
                f"got {self.external_false_signal_rate}"
            )

    def replace(self, **changes: float) -> "MultiHopParameters":
        """A copy with the given fields changed (sweep helper)."""
        return dataclasses.replace(self, **changes)

    def with_coupled_timers(
        self,
        refresh_interval: float,
        timeout_multiple: float = 3.0,
    ) -> "MultiHopParameters":
        """Change ``R`` while keeping ``T = timeout_multiple * R``."""
        return self.replace(
            refresh_interval=refresh_interval,
            timeout_interval=timeout_multiple * refresh_interval,
        )

    def refresh_reach_probability(self, hop: int) -> float:
        """Probability that a refresh crosses the first ``hop`` links."""
        if not 0 <= hop <= self.hops:
            raise ValueError(f"hop must be in [0, {self.hops}], got {hop}")
        return (1.0 - self.loss_rate) ** hop


def kazaa_defaults() -> SignalingParameters:
    """Single-hop defaults: the Kazaa peer/supernode scenario (§III-A.3).

    ``p_l = 0.02``, ``Delta = 30 ms``, ``1/lambda_u = 20 s``,
    ``1/mu_r = 1800 s``, ``R = 5 s``, ``T = 3R = 15 s``, ``K = 4*Delta``,
    ``lambda_x = 1e-4``.
    """
    return SignalingParameters()


def reservation_defaults() -> MultiHopParameters:
    """Multi-hop defaults: bandwidth reservation along 20 hops (§III-B.2).

    Per hop ``p_l = 0.02`` and ``Delta = 30 ms``; ``1/lambda_u = 60 s``,
    ``R = 5 s``, ``T = 15 s``, ``K = 4*Delta``, ``lambda_x = p_l^3``
    per receiver.
    """
    return MultiHopParameters()
