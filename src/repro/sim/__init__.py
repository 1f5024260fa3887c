"""Discrete-event simulation substrate.

The paper validates its analytic model with discrete-event simulations
(Figs. 11-12).  The usual Python DES library (simpy) is not available in
this offline environment, so this package implements the substrate from
scratch: an event kernel of scheduled calls (:mod:`repro.sim.engine`),
reproducible random streams (:mod:`repro.sim.randomness`), a lossy
delaying channel (:mod:`repro.sim.channel`), time-weighted measurement
(:mod:`repro.sim.monitor`) and replication statistics with confidence
intervals (:mod:`repro.sim.stats`).

The kernel has one primitive: ``env.call_later(delay, fn, *args)``
schedules a cancellable :class:`~repro.sim.engine.ScheduledCall` on an
:class:`~repro.sim.engine.Environment`'s queue, and calls at one instant
fire in the order they were scheduled.  A
:class:`~repro.sim.engine.RestartableTimer` runs a timer loop on such
calls.  The protocol timers that messages restart (state timeouts,
refresh and retransmission loops), the false-signal sources and the
update workloads are restartable timers; session lifecycles, fault
schedules and samplers are chains of calls.
"""

from repro.sim.channel import Channel, ChannelConfig, DeliveredMessage
from repro.sim.engine import (
    Environment,
    RestartableTimer,
    ScheduledCall,
    SimulationError,
)
from repro.sim.monitor import (
    StateFractionMonitor,
    TimeSeriesMonitor,
    TimeWeightedValue,
)
from repro.sim.randomness import RandomStreams, Timer
from repro.sim.stats import ConfidenceInterval, ReplicationSet, student_t_interval

__all__ = [
    "Channel",
    "ChannelConfig",
    "ConfidenceInterval",
    "DeliveredMessage",
    "Environment",
    "RandomStreams",
    "ReplicationSet",
    "RestartableTimer",
    "ScheduledCall",
    "SimulationError",
    "StateFractionMonitor",
    "TimeSeriesMonitor",
    "TimeWeightedValue",
    "Timer",
    "student_t_interval",
]
