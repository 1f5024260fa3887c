"""Single-hop analytic models (paper §III-A)."""

from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.model import SingleHopModel, SingleHopSolution, solve_all
from repro.core.singlehop.states import INCONSISTENT_STATES, SingleHopState
from repro.core.singlehop.transitions import (
    build_transition_rates,
    effective_false_removal_rate,
    state_space,
)

__all__ = [
    "INCONSISTENT_STATES",
    "SingleHopModel",
    "SingleHopSolution",
    "SingleHopState",
    "build_transition_rates",
    "effective_false_removal_rate",
    "message_rate_components",
    "solve_all",
    "state_space",
]
