"""Sensitivity of the paper's claims to the decoding of its parameters."""

from repro.analysis.sensitivity import (
    ClaimCheck,
    check_claims,
    default_claims,
    plausible_decodings,
    robustness_report,
)

__all__ = [
    "ClaimCheck",
    "check_claims",
    "default_claims",
    "plausible_decodings",
    "robustness_report",
]
