"""Gilbert-Elliott channel x protocol product-chain models.

The analytic half of the ``burst_loss`` fault scenarios: the signaling
chains of the paper, re-solved on the product state space
``(protocol_state, channel_state)`` where the channel is the two-state
Gilbert-Elliott loss modulator from :mod:`repro.faults`.  One product
lift serves both chain families: :mod:`repro.core.gilbert.transitions`
builds the shared edge specs over a base family record (the single-hop
chain or the relay chain), and :mod:`repro.core.gilbert.model` holds the
one model body, subclassed once per base.  The compiled batch path is
the one ``GilbertTemplate`` in :mod:`repro.core.templates`.
"""

from repro.core.gilbert.model import (
    GilbertMultiHopModel,
    GilbertMultiHopSolution,
    GilbertSingleHopModel,
    GilbertSingleHopSolution,
)
from repro.core.gilbert.transitions import CHANNEL_STATES, ChannelState

__all__ = [
    "CHANNEL_STATES",
    "ChannelState",
    "GilbertMultiHopModel",
    "GilbertMultiHopSolution",
    "GilbertSingleHopModel",
    "GilbertSingleHopSolution",
]
