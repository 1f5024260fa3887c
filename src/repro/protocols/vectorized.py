"""Engine-free vectorized replications of the single-hop simulation.

For SS and SS+ER under deterministic timers and deterministic delay the
whole event timeline of a session is a closed-form function of the
workload draws and the per-message loss draws: triggers and refreshes
sit on fold-left periodic grids, every forward message consumes exactly
one loss uniform in send order, receipts land one constant delay after
their sends, and the receiver's state trajectory follows from the
delivered-receipt sequence alone (no reverse traffic, no
retransmissions, no external signal).  This module replays that
timeline with numpy arrays instead of engine events and produces
**bit-identical** :class:`~repro.protocols.session.SingleHopSimResult`
objects: same random streams per replication, same draw order, same
floating-point op sequence for every time, integral and metric.

Sessions whose tail crosses into the next session (a delivered message
still in flight when the session driver hands over — possible only
after a loss hole longer than the state timeout) cannot be replayed
from per-session arrays; lanes that hit one are re-run through the
scalar engine, which is bit-identical by definition.  The conditions a
config must meet are checked by :func:`supports_vectorized_config`.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocols import Protocol
from repro.protocols.config import SingleHopSimConfig
from repro.protocols.session import SingleHopSimResult, SingleHopSimulation
from repro.sim.randomness import RandomStreams, TimerDiscipline
from repro.sim.vectorized import (
    UniformPool,
    delivery_times,
    fold_active_time,
    fold_cumsum,
    refresh_grid,
)

__all__ = [
    "simulate_replications_vectorized",
    "supports_vectorized_config",
]

#: Protocols with a one-directional message flow: no ACKs, no
#: retransmissions, no removal notifications, no external signal.
_VECTOR_PROTOCOLS = (Protocol.SS, Protocol.SS_ER)


def supports_vectorized_config(config: SingleHopSimConfig) -> bool:
    """Whether ``config`` is replayable without the event engine.

    Requires SS or SS+ER (one-directional traffic), deterministic
    protocol timers and channel delay (so timers consume no randomness
    and receipts are send-order), an i.i.d. loss channel (no
    Gilbert-Elliott modulator), no consistency-sample grid, and a state
    timeout longer than the delay (receipts of one session cannot
    outlive its timeout-driven removal).
    """
    return (
        config.protocol in _VECTOR_PROTOCOLS
        and TimerDiscipline(config.timer_discipline) is TimerDiscipline.DETERMINISTIC
        and TimerDiscipline(config.delay_discipline) is TimerDiscipline.DETERMINISTIC
        and config.gilbert is None
        and not config.sample_times
        and config.params.timeout_interval > config.params.delay
    )


def simulate_replications_vectorized(
    config: SingleHopSimConfig,
    replications: int,
) -> list[SingleHopSimResult]:
    """All replications' results, bit-identical to the scalar engine.

    Per-replication seeds, named streams and draw order match
    :func:`~repro.protocols.session.simulate_replications` exactly;
    replications whose timelines leave the closed-form regime fall back
    to the scalar engine lane by lane.
    """
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    if not supports_vectorized_config(config):
        raise ValueError(
            f"config not supported by the vectorized engine "
            f"(protocol={config.protocol.value}); see supports_vectorized_config"
        )
    streams = RandomStreams(config.seed)
    results = []
    for index in range(replications):
        lane_config = config.replace(seed=streams.spawn(index).seed)
        outcome = _simulate_lane(lane_config)
        if outcome is None:
            outcome = SingleHopSimulation(lane_config).run()
        results.append(outcome)
    return results


def _simulate_lane(config: SingleHopSimConfig) -> SingleHopSimResult | None:
    """One replication via array replay; None when it needs the engine."""
    params = config.params
    protocol = config.protocol
    explicit_removal = protocol.explicit_removal
    streams = RandomStreams(config.seed)
    workload = streams.stream("workload")
    losses = UniformPool(streams.stream("forward-channel"))

    loss_rate = params.loss_rate
    delay = params.delay
    refresh = params.refresh_interval
    timeout = params.timeout_interval
    update_rate = params.update_rate

    now = 0.0
    triggers_sent = 0
    refreshes_sent = 0
    timeout_removals = 0
    boundary_times: list[np.ndarray] = []
    boundary_flags: list[np.ndarray] = []

    for _ in range(config.sessions):
        # Workload draws, in the scalar driver's exact order: session
        # length first, then update gaps until one overshoots.
        remaining = float(workload.exponential(params.removal_rate**-1))
        gaps = []
        while update_rate > 0:
            gap = float(workload.exponential(1.0 / update_rate))
            if gap >= remaining:
                break
            gaps.append(gap)
            remaining -= gap

        # Triggers sit on the fold-left walk of the engine clock; each
        # trigger restarts the refresh loop, whose fold-left grid runs
        # until the next trigger (or the removal) cancels it.
        trig = fold_cumsum(now, np.asarray(gaps))
        t_rem = trig[-1] + remaining
        bounds = np.append(trig[1:], t_rem)
        spans = bounds - trig
        depth = max(0, int(spans.max() / refresh) + 1)
        grid = refresh_grid(trig, refresh, depth)
        valid = np.empty(grid.shape, dtype=bool)
        valid[:, 0] = True
        valid[:, 1:] = grid[:, 1:] < bounds[:, None]

        triggers_sent += len(trig)
        refreshes_sent += int(valid[:, 1:].sum())

        # One loss uniform per forward send, consumed in send order;
        # the SS+ER removal message is the session's final send.
        send_times = grid.ravel()[valid.ravel()]
        draws = losses.take(len(send_times) + (1 if explicit_removal else 0))
        state_lost = draws[: len(send_times)] < loss_rate
        removal_lost = bool(draws[-1] < loss_rate) if explicit_removal else True

        receipts = delivery_times(send_times[~state_lost], delay)
        # A receipt leaves sender and receiver consistent only until
        # the next trigger bumps the version (or the removal empties
        # the sender) — its interval's refresh bound, exactly.
        send_bounds = np.broadcast_to(bounds[:, None], grid.shape).ravel()[valid.ravel()]
        receipt_flags = receipts < send_bounds[~state_lost]

        outcome = _session_end(
            receipts,
            t_rem,
            timeout,
            removal_receipt=(
                delivery_times(np.array([t_rem]), delay)[0]
                if explicit_removal and not removal_lost
                else None
            ),
        )
        if outcome is None:
            return None
        end, session_timeouts, mid_times, tail_times, tail_flags = outcome
        timeout_removals += session_timeouts

        # When the state timeout is a multiple of the refresh interval a
        # refresh receipt lands on the exact expiry instant; the engine
        # fires the (earlier-scheduled) timeout first and the refresh
        # re-installs at the same time.  Mid-session expiries therefore
        # sort *before* receipts so an equal-time receipt's flag wins.
        times = np.concatenate([trig, mid_times, receipts, tail_times])
        flags = np.concatenate(
            [
                np.zeros(len(trig) + len(mid_times)),
                receipt_flags.astype(float),
                tail_flags,
            ]
        )
        order = np.argsort(times, kind="stable")
        boundary_times.append(times[order])
        boundary_flags.append(flags[order])
        now = end

    active = fold_active_time(
        np.concatenate(boundary_times), np.concatenate(boundary_flags)
    )
    sim_time = now
    message_counts = {"trigger": triggers_sent}
    if refreshes_sent:
        message_counts["refresh"] = refreshes_sent
    if explicit_removal:
        message_counts["removal"] = config.sessions
    return SingleHopSimResult(
        protocol=protocol,
        sessions=config.sessions,
        sim_time=sim_time,
        inconsistent_time=sim_time - active,
        message_counts=message_counts,
        timeout_removals=timeout_removals,
        false_signal_removals=0,
        consistency_samples=(),
    )


def _session_end(
    receipts: np.ndarray,
    t_rem: float,
    timeout: float,
    removal_receipt: float | None,
):
    """Resolve the receiver's endgame for one session.

    Returns ``(end, timeouts, mid_times, tail_times, tail_flags)`` —
    the session end time (the instant the receiver's ``when_empty``
    call runs at or after the sender's removal), the number of timeout
    removals, mid-session expiry boundaries (always flag-0; kept
    separate because an equal-time receipt must sort after them), and
    the remaining boundaries (the sender's removal instant, the
    receiver's final emptying).  Returns ``None`` when a delivered receipt outlives the
    session end: that timeline leaks into the next session and needs
    the scalar engine.
    """
    q = len(receipts)
    if q == 0:
        # Nothing delivered: the receiver never held state this
        # session; the sender's removal finds both sides empty (an
        # in-flight SS+ER removal is a no-op on an empty receiver).
        return t_rem, 0, np.empty(0), np.array([t_rem]), np.array([1.0])

    expiries = receipts + timeout
    hold = int(np.searchsorted(receipts, t_rem, side="right")) - 1
    if hold < 0:
        return None  # every receipt arrives after the session driver moved on

    # Gap timeouts inside the held part of the session: the receiver
    # re-installs on the next receipt, the sender still holds.  Ties
    # (next receipt exactly at the expiry) fire the timeout first — its
    # event was scheduled at the previous receipt, the delivery only at
    # send time — so the comparison is non-strict.
    mid = expiries[:hold] <= receipts[1 : hold + 1]
    timeouts = int(mid.sum())
    mid_times = expiries[:hold][mid]

    if expiries[hold] <= t_rem:
        # Timed out before the removal and nothing arrived since.
        if hold != q - 1:
            return None  # late receipts would re-install past the end
        return (
            t_rem,
            timeouts + 1,
            mid_times,
            np.array([expiries[hold], t_rem]),
            np.array([0.0, 1.0]),
        )

    # Held at the removal: walk receipts until the first emptying.
    tail_times = [t_rem]
    tail_flags = [0.0]
    i = hold
    while True:
        nxt = receipts[i + 1] if i + 1 < q else None
        expiry = expiries[i]
        if (
            removal_receipt is not None
            and removal_receipt < expiry
            and (nxt is None or removal_receipt < nxt)
        ):
            if nxt is not None:
                return None  # receipt after the explicit removal
            tail_times.append(removal_receipt)
            tail_flags.append(1.0)
            return removal_receipt, timeouts, mid_times, np.array(tail_times), np.array(tail_flags)
        if nxt is not None and nxt < expiry:
            i += 1
            continue
        if nxt is not None:
            return None  # receipt at or after the timeout-driven emptying
        tail_times.append(expiry)
        tail_flags.append(1.0)
        return expiry, timeouts + 1, mid_times, np.array(tail_times), np.array(tail_flags)
