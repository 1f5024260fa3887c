"""Discrete-event simulation substrate.

The paper validates its analytic model with discrete-event simulations
(Figs. 11-12).  The usual Python DES library (simpy) is not available in
this offline environment, so this package implements the substrate from
scratch: a generator-based process model (:mod:`repro.sim.engine`),
reproducible random streams (:mod:`repro.sim.randomness`), a lossy
delaying channel (:mod:`repro.sim.channel`), time-weighted measurement
(:mod:`repro.sim.monitor`) and replication statistics with confidence
intervals (:mod:`repro.sim.stats`).

The process model mirrors simpy's: a *process* is a Python generator
that yields :class:`~repro.sim.engine.Event` objects (most commonly
``env.timeout(delay)``) and is resumed when the event fires.  Processes
can wait on each other and share simulated time through an
:class:`~repro.sim.engine.Environment`.  Beside processes,
``env.call_later(delay, fn, *args)`` schedules a cancellable
:class:`~repro.sim.engine.ScheduledCall` on the same event queue, and a
:class:`~repro.sim.engine.RestartableTimer` runs a restartable timer
loop on such calls.  The protocol timers that messages restart (state
timeouts, refresh and retransmission loops) are restartable timers;
workloads, fault schedules and samplers are processes.
"""

from repro.sim.channel import Channel, ChannelConfig, DeliveredMessage
from repro.sim.engine import (
    Environment,
    Event,
    Process,
    RestartableTimer,
    ScheduledCall,
    SimulationError,
    Timeout,
)
from repro.sim.monitor import (
    Counter,
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
    "Counter",
    "DeliveredMessage",
    "Environment",
    "Event",
    "Process",
    "RandomStreams",
    "ReplicationSet",
    "RestartableTimer",
    "ScheduledCall",
    "SimulationError",
    "StateFractionMonitor",
    "TimeSeriesMonitor",
    "Timeout",
    "TimeWeightedValue",
    "Timer",
    "student_t_interval",
]
