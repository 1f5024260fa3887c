"""ASCII renderings of the paper's model diagrams (Figs. 3, 15, 16).

The figures in the published PDF are raster images; these renderers
regenerate their *content* — states, transitions and symbolic rates —
directly from the model builders, so the diagrams in the documentation
can never drift from the implementation.
"""

from __future__ import annotations

from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_states import RECOVERY
from repro.core.multihop.tree_transitions import build_tree_rates
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.transitions import build_transition_rates, state_space

__all__ = ["render_multihop_chain", "render_singlehop_chain"]


def _format_rate(rate: float) -> str:
    return f"{rate:.6g}"


def render_singlehop_chain(
    protocol: Protocol,
    params: SignalingParameters | None = None,
) -> str:
    """The Fig. 3 chain for one protocol, as a transition listing."""
    params = params or SignalingParameters()
    rates = build_transition_rates(protocol, params)
    states = state_space(protocol)
    width = max(len(str(s.value)) for s in states)
    lines = [
        f"Single-hop Markov chain, protocol {protocol.value} (paper Fig. 3)",
        f"states ({len(states)}): " + ", ".join(s.value for s in states),
        "transitions:",
    ]
    for (origin, destination), rate in sorted(
        rates.items(), key=lambda item: (item[0][0].value, item[0][1].value)
    ):
        lines.append(
            f"  {origin.value:>{width}s} --{_format_rate(rate):>10s}/s--> "
            f"{destination.value}"
        )
    lines.append("absorbing: (0,0); start: (1,0)_1")
    return "\n".join(lines)


def _paper_label(state) -> str:
    """A chain state in the paper's notation: ``(i,s)`` for ``i``
    consistent hops on the fast (0) or slow (1) path, ``F`` for HS
    recovery."""
    if state is RECOVERY:
        return "F"
    return f"({len(state.consistent)},{1 if state.slow else 0})"


def render_multihop_chain(
    protocol: Protocol,
    params: MultiHopParameters | None = None,
) -> str:
    """The Fig. 15/16 chain for one protocol, as a transition listing.

    The chain is the tree model on ``Topology.chain(N)``; its states
    are listed in the paper's ``(i,s)``/``F`` notation, one line per
    transition, sorted by origin and destination.
    """
    params = params or MultiHopParameters(hops=5)
    rates = build_tree_rates(protocol, params, Topology.chain(params.hops))
    lines = [
        f"Multi-hop Markov chain, protocol {protocol.value} "
        f"(paper Fig. {'16' if protocol is Protocol.HS else '15'}), N = {params.hops}",
        f"transitions ({len(rates)}):",
    ]
    for origin, destination, rate in sorted(
        (_paper_label(origin), _paper_label(destination), rate)
        for (origin, destination), rate in rates.items()
    ):
        lines.append(f"  {origin:>7s} --{_format_rate(rate):>10s}/s--> {destination}")
    return "\n".join(lines)
