"""The multi-hop chain simulation (validates §III-B).

A chain of ``N`` relays is the unary tree ``Topology.chain(N)``, so
:class:`MultiHopSimulation` runs the per-edge tree harness of
:mod:`repro.multihop.tree` on it and reports per-hop results:

* per-hop inconsistency — fraction of time node ``h`` disagrees with
  the sender's current value (Fig. 17);
* overall inconsistency — any hop inconsistent (Fig. 18a, eq. 12);
* per-link signaling transmissions per second (Fig. 18b).

The paper itself only simulated the single-hop system; this simulator
extends the validation to the multi-hop model.
"""

from __future__ import annotations

import dataclasses

from repro.core.multihop.topology import Topology
from repro.core.protocols import Protocol
from repro.multihop.config import MultiHopSimConfig
from repro.multihop.tree import TreeSimulation
from repro.sim.randomness import RandomStreams
from repro.sim.stats import ReplicationSet

__all__ = ["MultiHopSimResult", "MultiHopSimulation", "simulate_multihop_replications"]


@dataclasses.dataclass(frozen=True)
class MultiHopSimResult:
    """Measured outcome of one multi-hop simulation run."""

    protocol: Protocol
    hops: int
    measured_time: float
    hop_inconsistent_time: list[float]
    any_inconsistent_time: float
    link_transmissions: int
    #: Consistency indicator sampled at ``config.sample_times`` (1.0
    #: when every hop agreed with the sender at that instant).
    consistency_samples: tuple[float, ...] = ()

    @property
    def inconsistency_ratio(self) -> float:
        """Fraction of time any hop was inconsistent (eq. 12's ``I``)."""
        if self.measured_time <= 0:
            return 0.0
        return self.any_inconsistent_time / self.measured_time

    @property
    def message_rate(self) -> float:
        """Per-link transmissions per second, summed over all links."""
        if self.measured_time <= 0:
            return 0.0
        return self.link_transmissions / self.measured_time

    def hop_inconsistency(self, hop: int) -> float:
        """Fraction of time hop ``hop`` (1-based) was inconsistent."""
        if not 1 <= hop <= self.hops:
            raise ValueError(f"hop must be in [1, {self.hops}], got {hop}")
        if self.measured_time <= 0:
            return 0.0
        return self.hop_inconsistent_time[hop - 1] / self.measured_time

    def hop_profile(self) -> list[float]:
        """Per-hop inconsistency fractions, hop 1 first (Fig. 17)."""
        return [self.hop_inconsistency(h) for h in range(1, self.hops + 1)]


class MultiHopSimulation:
    """One replication of the multi-hop chain simulation."""

    def __init__(self, config: MultiHopSimConfig) -> None:
        self.config = config
        self.tree = TreeSimulation(config, Topology.chain(config.params.hops))

    def run(self) -> MultiHopSimResult:
        """Simulate until the horizon; measurement starts after warmup."""
        outcome = self.tree._measure()  # not tree.run(): see _measure
        return MultiHopSimResult(
            protocol=outcome.protocol,
            hops=self.config.params.hops,
            measured_time=outcome.measured_time,
            hop_inconsistent_time=outcome.node_inconsistent_time,
            any_inconsistent_time=outcome.any_inconsistent_time,
            link_transmissions=outcome.link_transmissions,
            consistency_samples=outcome.consistency_samples,
        )


def simulate_multihop_replications(
    config: MultiHopSimConfig,
    replications: int = 5,
) -> ReplicationSet:
    """Run independent replications; records I, message rate, worst hop."""
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    streams = RandomStreams(config.seed)
    results = ReplicationSet()
    for index in range(replications):
        replication = config.replace(seed=streams.spawn(index).seed)
        outcome = MultiHopSimulation(replication).run()
        results.add("inconsistency_ratio", outcome.inconsistency_ratio)
        results.add("message_rate", outcome.message_rate)
        results.add("last_hop_inconsistency", outcome.hop_inconsistency(config.params.hops))
    return results
