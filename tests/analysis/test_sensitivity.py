"""Tests that the paper's conclusions survive the parameter-decoding
ambiguity (``repro.analysis.sensitivity.plausible_decodings``)."""

from __future__ import annotations

from repro.analysis.sensitivity import (
    check_claims,
    default_claims,
    plausible_decodings,
    robustness_report,
)


class TestDecodings:
    def test_reasonable_number_of_candidates(self):
        candidates = plausible_decodings()
        assert len(candidates) == 16

    def test_candidates_are_distinct(self):
        assert len(set(plausible_decodings())) == 16

    def test_contested_fields_vary(self):
        candidates = plausible_decodings()
        assert len({c.update_rate for c in candidates}) == 4
        assert len({c.delay for c in candidates}) == 2


class TestClaims:
    def test_all_claims_hold_on_default_decoding(self, params):
        checks = check_claims([params])
        failing = [c for c in checks if not c.holds]
        assert not failing, [f"{c.claim}: {c.detail}" for c in failing]

    def test_all_claims_hold_across_decodings(self):
        checks = check_claims()
        failing = [c for c in checks if not c.holds]
        assert not failing, [f"{c.claim}: {c.detail}" for c in failing]

    def test_claim_set_covers_headline_findings(self):
        claims = default_claims()
        assert len(claims) == 5
        assert any("explicit removal" in name for name in claims)
        assert any("SS+RTR" in name for name in claims)

    def test_report_mentions_every_claim(self):
        report = robustness_report()
        for claim in default_claims():
            assert claim in report
