"""Shape checks for the simulation-validation figures (11 and 12).

These are the paper's own model-vs-simulation comparison: the measured
series (deterministic timers) must track the analytic curves within the
paper's reported bands — a few percent on the inconsistency ratio for
most of the range, 5-15% on the message rate.
"""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.experiments import run_scenario


@pytest.fixture(scope="module")
def fig11():
    return run_scenario("fig11", "fast")


@pytest.fixture(scope="module")
def fig12():
    return run_scenario("fig12", "fast")


def paired(panel, protocol):
    model = panel.series_by_label(protocol.value)
    sim = panel.series_by_label(f"{protocol.value} sim")
    return model, sim


class TestFig11:
    def test_every_protocol_has_model_and_sim_series(self, fig11):
        panel = fig11.panel("a: inconsistency ratio")
        labels = set(panel.labels())
        for protocol in Protocol:
            assert protocol.value in labels
            assert f"{protocol.value} sim" in labels

    def test_sim_series_carry_confidence_intervals(self, fig11):
        panel = fig11.panel("a: inconsistency ratio")
        for protocol in Protocol:
            sim = panel.series_by_label(f"{protocol.value} sim")
            assert sim.y_err is not None
            assert all(err >= 0 for err in sim.y_err)

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_tracks_model(self, fig11, protocol):
        model, sim = paired(fig11.panel("a: inconsistency ratio"), protocol)
        for m, s, err in zip(model.y, sim.y, sim.y_err):
            # Within 35% relative or inside ~2 CIs (deterministic timers
            # bias soft-state timeouts slightly downward).
            assert abs(s - m) <= max(0.35 * m, 2.5 * err, 5e-4), protocol

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_message_rate_tracks_model(self, fig11, protocol):
        model, sim = paired(fig11.panel("b: signaling message rate"), protocol)
        for m, s, err in zip(model.y, sim.y, sim.y_err):
            assert abs(s - m) <= max(0.25 * m, 2.5 * err), protocol

    def test_sim_preserves_protocol_ordering(self, fig11):
        panel = fig11.panel("a: inconsistency ratio")
        # At the longest simulated sessions the reliable-trigger group
        # must sit below the best-effort group, as in the model.
        ss = panel.series_by_label(f"{Protocol.SS.value} sim").y[-1]
        rtr = panel.series_by_label(f"{Protocol.SS_RTR.value} sim").y[-1]
        hs = panel.series_by_label(f"{Protocol.HS.value} sim").y[-1]
        assert rtr < ss
        assert hs < ss


class TestFig12:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_inconsistency_tracks_model_across_r(self, fig12, protocol):
        model, sim = paired(fig12.panel("a: inconsistency ratio"), protocol)
        for m, s, err in zip(model.y, sim.y, sim.y_err):
            assert abs(s - m) <= max(0.4 * m, 2.5 * err, 1e-3), protocol

    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_message_rate_tracks_model_across_r(self, fig12, protocol):
        model, sim = paired(fig12.panel("b: signaling message rate"), protocol)
        for m, s, err in zip(model.y, sim.y, sim.y_err):
            assert abs(s - m) <= max(0.3 * m, 2.5 * err), protocol

    def test_sim_message_rate_falls_with_r_for_soft_state(self, fig12):
        panel = fig12.panel("b: signaling message rate")
        for protocol in (Protocol.SS, Protocol.SS_ER):
            sim = panel.series_by_label(f"{protocol.value} sim")
            assert sim.y[0] > sim.y[-1], protocol

    def test_hs_sim_flat_in_r(self, fig12):
        panel = fig12.panel("a: inconsistency ratio")
        sim = panel.series_by_label(f"{Protocol.HS.value} sim")
        # HS ignores R; only statistical noise separates the points.
        assert max(sim.y) < 3 * max(min(sim.y), 1e-4)
