"""Fault models: bursty-loss channels and deterministic failure schedules.

The paper's thesis is that soft state *degrades gracefully* under loss
and component failure, yet the baseline reproduction only exercises
i.i.d. Bernoulli loss over immortal components.  This layer holds the
fault descriptions — pure, frozen parameter objects with no behavior of
their own — consumed by three very different executors:

* the analytic side (:mod:`repro.core.gilbert`) builds channel-state x
  protocol-state product Markov chains from
  :class:`GilbertElliottParameters`;
* the simulator harnesses (:mod:`repro.protocols`,
  :mod:`repro.multihop`) drive a stateful
  :class:`repro.sim.channel.GilbertElliottProcess` from the same
  parameters, and realize :class:`FaultSchedule` link flaps and node
  crashes as deterministic chains of scheduled calls;
* the experiment layer sweeps them (the ``burst_loss`` and
  ``link_flap`` scenario families).

Keeping the descriptions in one bottom layer (depends only on ``meta``)
means model and simulation agree on *what* the fault is by
construction; only *how* it is realized differs per consumer.
"""

from repro.faults.gilbert import GilbertElliottParameters
from repro.faults.schedule import FaultSchedule, LinkFlap, NodeCrash

__all__ = [
    "FaultSchedule",
    "GilbertElliottParameters",
    "LinkFlap",
    "NodeCrash",
]
