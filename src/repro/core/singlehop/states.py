"""States of the single-hop Markov model (paper Fig. 3).

Each state pairs the sender's and receiver's view of the signaling
state.  Fast/slow subscripts (the paper's 1/2) distinguish "a message is
in flight" from "the message was lost; waiting for a timer".
"""

from __future__ import annotations

import enum

__all__ = ["SingleHopState", "INCONSISTENT_STATES"]


class SingleHopState(str, enum.Enum):
    """A state of the Fig. 3 chain, written ``(sender, receiver)``."""

    S10_FAST = "(1,0)_1"
    """Sender installed state, trigger message in flight."""

    S10_SLOW = "(1,0)_2"
    """Sender installed state, trigger lost; waiting for refresh/retransmit."""

    CONSISTENT = "C"
    """Sender and receiver hold the same value."""

    IC_FAST = "IC_1"
    """Both hold state but values differ; update trigger in flight."""

    IC_SLOW = "IC_2"
    """Both hold state but values differ; update trigger lost."""

    S01_FAST = "(0,1)_1"
    """Sender removed state; receiver still holds it (removal in flight)."""

    S01_SLOW = "(0,1)_2"
    """Sender removed state; explicit removal message lost.

    Only exists for SS+ER, SS+RTR and HS (Fig. 3 caption)."""

    ABSORBED = "(0,0)"
    """Both removed — the absorbing end of the session lifecycle."""


INCONSISTENT_STATES: tuple[SingleHopState, ...] = (
    SingleHopState.S10_FAST,
    SingleHopState.S10_SLOW,
    SingleHopState.IC_FAST,
    SingleHopState.IC_SLOW,
    SingleHopState.S01_FAST,
    SingleHopState.S01_SLOW,
)
"""States summed by eq. (1): everything except ``CONSISTENT``."""
