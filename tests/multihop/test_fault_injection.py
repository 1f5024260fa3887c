"""Fault injection in the chain and tree harnesses.

Covers the three contracts of :mod:`repro.faults` at the simulator
level: degenerate Gilbert-Elliott channels are bit-identical to the
i.i.d. baseline, fault schedules are deterministic (same seed + same
schedule = same result), and injected faults actually degrade
consistency relative to an undisturbed run.
"""

from __future__ import annotations

import pytest

from repro.core.multihop import Topology
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.faults import FaultSchedule, GilbertElliottParameters, LinkFlap, NodeCrash
from repro.multihop import MultiHopSimConfig, TreeSimulation
from repro.multihop.chain import MultiHopSimulation
from repro.sim.channel import Channel


def chain_config(**overrides):
    params = reservation_defaults().replace(hops=3)
    defaults = dict(
        protocol=Protocol.SS, params=params, horizon=3000.0, warmup=200.0, seed=71
    )
    defaults.update(overrides)
    return MultiHopSimConfig(**defaults)


class TestConfigValidation:
    @pytest.mark.parametrize("link", [0, 4])
    def test_flap_link_must_name_a_hop(self, link):
        faults = FaultSchedule(flaps=(LinkFlap(link=link, period=100.0, down_duration=10.0),))
        with pytest.raises(ValueError, match="flap link"):
            chain_config(faults=faults)

    @pytest.mark.parametrize("node", [0, 4])
    def test_crash_node_must_name_a_hop(self, node):
        faults = FaultSchedule(crashes=(NodeCrash(node=node, at=100.0, restart_after=10.0),))
        with pytest.raises(ValueError, match="crash node"):
            chain_config(faults=faults)

    def test_valid_schedule_accepted(self):
        faults = FaultSchedule(
            flaps=(LinkFlap(link=1, period=100.0, down_duration=10.0),),
            crashes=(NodeCrash(node=3, at=100.0, restart_after=10.0),),
        )
        assert chain_config(faults=faults).faults is faults


class TestGilbertChainDegeneracy:
    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_degenerate_channel_bit_identical_to_iid(self, protocol):
        """burstiness=0 must leave every metric untouched, exactly."""
        degenerate = GilbertElliottParameters.matched_average(0.02, 0.0)
        baseline = MultiHopSimulation(chain_config(protocol=protocol)).run()
        modulated = MultiHopSimulation(
            chain_config(protocol=protocol, gilbert=degenerate)
        ).run()
        assert modulated.inconsistency_ratio == baseline.inconsistency_ratio
        assert modulated.link_transmissions == baseline.link_transmissions
        assert modulated.hop_inconsistent_time == baseline.hop_inconsistent_time

    def test_bursty_channel_diverges(self):
        bursty = GilbertElliottParameters.matched_average(0.02, 1.0)
        baseline = MultiHopSimulation(chain_config()).run()
        modulated = MultiHopSimulation(chain_config(gilbert=bursty)).run()
        assert modulated.link_transmissions != baseline.link_transmissions

    def test_bursty_channel_deterministic(self):
        bursty = GilbertElliottParameters.matched_average(0.02, 0.7)
        first = MultiHopSimulation(chain_config(gilbert=bursty)).run()
        second = MultiHopSimulation(chain_config(gilbert=bursty)).run()
        assert first.inconsistency_ratio == second.inconsistency_ratio
        assert first.link_transmissions == second.link_transmissions


class TestChainFaultSchedules:
    def test_link_flap_degrades_consistency(self):
        # The link is down a third of the time: refreshes die in bulk
        # and downstream state expires, so inconsistency must rise.
        faults = FaultSchedule(
            flaps=(LinkFlap(link=1, period=30.0, down_duration=10.0),)
        )
        baseline = MultiHopSimulation(chain_config()).run()
        flapped = MultiHopSimulation(chain_config(faults=faults)).run()
        assert flapped.inconsistency_ratio > baseline.inconsistency_ratio

    def test_flap_schedule_deterministic(self):
        faults = FaultSchedule(
            flaps=(LinkFlap(link=2, period=50.0, down_duration=5.0),)
        )
        first = MultiHopSimulation(chain_config(faults=faults)).run()
        second = MultiHopSimulation(chain_config(faults=faults)).run()
        assert first.inconsistency_ratio == second.inconsistency_ratio
        assert first.link_transmissions == second.link_transmissions

    def test_flap_does_not_shift_loss_stream(self):
        # Deterministic outage losses consume no randomness, so two
        # different flap schedules still draw the same Bernoulli
        # sequence for the traffic they let through; the run stays
        # exactly reproducible per schedule (asserted above) and the
        # schedule-free baseline is recovered by an empty schedule.
        empty = MultiHopSimulation(chain_config(faults=FaultSchedule())).run()
        baseline = MultiHopSimulation(chain_config()).run()
        assert empty.inconsistency_ratio == baseline.inconsistency_ratio
        assert empty.link_transmissions == baseline.link_transmissions

    def test_node_crash_degrades_consistency(self):
        faults = FaultSchedule(
            crashes=(NodeCrash(node=2, at=1000.0, restart_after=300.0),)
        )
        baseline = MultiHopSimulation(chain_config()).run()
        crashed = MultiHopSimulation(chain_config(faults=faults)).run()
        assert crashed.inconsistency_ratio > baseline.inconsistency_ratio

    def test_crash_schedule_deterministic(self):
        faults = FaultSchedule(
            crashes=(NodeCrash(node=1, at=500.0, restart_after=100.0),)
        )
        first = MultiHopSimulation(chain_config(faults=faults)).run()
        second = MultiHopSimulation(chain_config(faults=faults)).run()
        assert first.inconsistency_ratio == second.inconsistency_ratio


class TestTreeFaults:
    TOPOLOGY = Topology.kary(2, 2)

    def tree_config(self, **overrides):
        params = reservation_defaults().replace(hops=self.TOPOLOGY.num_edges)
        defaults = dict(
            protocol=Protocol.SS, params=params, horizon=2000.0, warmup=100.0, seed=73
        )
        defaults.update(overrides)
        return MultiHopSimConfig(**defaults)

    def test_degenerate_gilbert_bit_identical(self):
        degenerate = GilbertElliottParameters.matched_average(0.02, 0.0)
        baseline = TreeSimulation(self.tree_config(), self.TOPOLOGY).run()
        modulated = TreeSimulation(
            self.tree_config(gilbert=degenerate), self.TOPOLOGY
        ).run()
        assert modulated.inconsistency_ratio == baseline.inconsistency_ratio
        assert modulated.link_transmissions == baseline.link_transmissions

    def test_flap_toggles_the_link_at_its_window_edges(self, monkeypatch):
        flap = LinkFlap(link=2, period=300.0, down_duration=20.0, offset=50.0)
        config = self.tree_config(horizon=1000.0, faults=FaultSchedule(flaps=(flap,)))
        simulation = TreeSimulation(config, self.TOPOLOGY)
        toggles = []

        def set_down(channel, down):
            if channel.name.startswith("edge-2-"):
                toggles.append((channel.name, channel.env.now, down))
            channel.__dict__["down"] = down

        # Patched after construction: the property reads and writes the
        # instance attribute that Channel.__init__ set.
        down = property(lambda channel: channel.__dict__["down"], set_down)
        monkeypatch.setattr(Channel, "down", down, raising=False)
        simulation.run()
        expected = []
        for down_at, up_at in flap.windows(config.horizon):
            for at, state in ((down_at, True), (up_at, False)):
                expected += [("edge-2-fwd", at, state), ("edge-2-rev", at, state)]
        assert len(expected) == 16
        assert toggles == expected

    def test_crash_and_restart_run_at_their_times(self, monkeypatch):
        crash = NodeCrash(node=3, at=250.0, restart_after=40.0)
        config = self.tree_config(horizon=1000.0, faults=FaultSchedule(crashes=(crash,)))
        simulation = TreeSimulation(config, self.TOPOLOGY)
        node = simulation.nodes[3]
        crash_node, restart_node = node.crash, node.restart
        events = []

        def recording(name, action):
            def record():
                events.append((name, simulation.env.now))
                action()

            return record

        monkeypatch.setattr(node, "crash", recording("crash", crash_node))
        monkeypatch.setattr(node, "restart", recording("restart", restart_node))
        simulation.run()
        assert events == [("crash", 250.0), ("restart", 290.0)]
        assert not node.crashed

    def test_flap_deterministic_and_degrading(self):
        faults = FaultSchedule(
            flaps=(LinkFlap(link=1, period=30.0, down_duration=10.0),)
        )
        baseline = TreeSimulation(self.tree_config(), self.TOPOLOGY).run()
        first = TreeSimulation(self.tree_config(faults=faults), self.TOPOLOGY).run()
        second = TreeSimulation(self.tree_config(faults=faults), self.TOPOLOGY).run()
        assert first.inconsistency_ratio == second.inconsistency_ratio
        assert first.inconsistency_ratio > baseline.inconsistency_ratio
