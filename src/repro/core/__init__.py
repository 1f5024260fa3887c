"""Analytic core: the paper's unified Markov models and metrics."""

from repro.core.markov import ContinuousTimeMarkovChain
from repro.core.parameters import (
    MultiHopParameters,
    SignalingParameters,
    kazaa_defaults,
    reservation_defaults,
)
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel, SingleHopSolution, SingleHopState, solve_all
from repro.core.templates import SingleHopTemplate, singlehop_template

__all__ = [
    "ContinuousTimeMarkovChain",
    "MultiHopParameters",
    "Protocol",
    "SignalingParameters",
    "SingleHopModel",
    "SingleHopSolution",
    "SingleHopState",
    "SingleHopTemplate",
    "kazaa_defaults",
    "reservation_defaults",
    "singlehop_template",
    "solve_all",
]
