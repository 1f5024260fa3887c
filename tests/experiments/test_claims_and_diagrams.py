"""Tests for the claims registry, report and diagram renderers."""

from __future__ import annotations

import pytest

from repro.core.protocols import Protocol
from repro.experiments import experiment_ids
from repro.experiments.claims import evaluate_claims, figure_claims, render_report
from repro.experiments.diagrams import render_multihop_chain, render_singlehop_chain


class TestClaimsRegistry:
    def test_every_evaluation_figure_has_a_claim(self):
        covered = {claim.experiment_id for claim in figure_claims()}
        figures = {eid for eid in experiment_ids() if eid.startswith("fig")}
        assert covered == figures

    def test_claims_have_distinct_text(self):
        texts = [claim.claim for claim in figure_claims()]
        assert len(set(texts)) == len(texts)

    def test_analytic_claims_all_hold(self):
        analytic = [
            claim
            for claim in figure_claims()
            if claim.experiment_id not in ("fig11", "fig12")
        ]
        outcomes = evaluate_claims(analytic)
        failing = [o.claim.claim for o in outcomes if not o.holds]
        assert not failing, failing

    def test_report_renders_pass_lines(self):
        analytic = [c for c in figure_claims() if c.experiment_id == "fig17"]
        outcomes = evaluate_claims(analytic)
        report = render_report(outcomes)
        assert "[PASS]" in report
        assert "fig17" in report
        assert "claims hold" in report


class TestDiagrams:
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_singlehop_diagram_lists_all_states(self, protocol):
        text = render_singlehop_chain(protocol)
        assert protocol.value in text
        assert "(1,0)_1" in text
        assert "(0,0)" in text
        if protocol.explicit_removal:
            assert "(0,1)_2" in text
        else:
            assert "(0,1)_2" not in text

    def test_singlehop_diagram_row_per_transition(self):
        from repro.core.parameters import SignalingParameters
        from repro.core.singlehop.transitions import build_transition_rates

        params = SignalingParameters()
        text = render_singlehop_chain(Protocol.SS, params)
        rates = build_transition_rates(Protocol.SS, params)
        arrow_lines = [line for line in text.splitlines() if "-->" in line]
        assert len(arrow_lines) == len(rates)

    @pytest.mark.parametrize("protocol", Protocol.multihop_family())
    def test_multihop_diagram_renders(self, protocol):
        text = render_multihop_chain(protocol)
        assert "Multi-hop Markov chain" in text
        assert "(0,0)" in text
        if protocol is Protocol.HS:
            assert "F" in text
            assert "Fig. 16" in text
        else:
            assert "Fig. 15" in text

    def test_cli_diagram_commands(self, capsys):
        from repro.cli import main

        assert main(["diagram", "SS"]) == 0
        assert "Fig. 3" in capsys.readouterr().out
        assert main(["diagram", "HS", "--multihop"]) == 0
        assert "Fig. 16" in capsys.readouterr().out
        assert main(["diagram", "SS+ER", "--multihop"]) == 1

    def test_cli_report_command(self, capsys):
        from repro.cli import main

        # Restrict to the cheap analytic figures via the API instead of
        # the CLI (the CLI report runs everything); here we just check
        # the CLI wiring exists by rendering a tiny report directly.
        analytic = [c for c in figure_claims() if c.experiment_id == "fig18"]
        outcomes = evaluate_claims(analytic)
        assert "fig18" in render_report(outcomes)
