"""Executable single-hop protocol implementations on the DES kernel."""

from repro.protocols.config import SingleHopSimConfig
from repro.protocols.messages import Message, MessageKind
from repro.protocols.receiver import SignalingReceiver
from repro.protocols.sender import SignalingSender
from repro.protocols.session import (
    SingleHopSimResult,
    SingleHopSimulation,
    simulate_replications,
)

__all__ = [
    "Message",
    "MessageKind",
    "SignalingReceiver",
    "SignalingSender",
    "SingleHopSimConfig",
    "SingleHopSimResult",
    "SingleHopSimulation",
    "simulate_replications",
]
