"""The Gilbert-Elliott channel x protocol product lift.

Under a Gilbert-Elliott channel the loss probability is itself a
two-state CTMC, so the analytic treatment is a *product* Markov chain
over ``(protocol_state, channel_state)``: within each channel slice the
protocol evolves with its i.i.d. transition structure evaluated at that
slice's loss probability, and every product state additionally carries
the channel flip edges.

The lift is written once, over a :class:`BaseFamily` record of what it
needs from the i.i.d. family it lifts: :data:`SINGLEHOP` (the Fig. 3
chain) or :data:`MULTIHOP` (the Fig. 15/16 relay chain, the tree model
on ``Topology.chain(N)``).  This module
builds the shared ``(origin, destination, tag)`` spec list — the same
pattern as :mod:`repro.core.multihop.tree_transitions` — consumed by
both the reference models (:mod:`repro.core.gilbert.model`) and the
compiled template (:mod:`repro.core.templates`), so the two accumulate
exactly the same edges in the same order and stay bit-identical.

Tags:

* ``("proto", channel, origin, dest)`` — a reference protocol edge in
  one channel slice; its rate is the base's rate for ``(origin, dest)``
  at that channel's loss probability.
* ``("absorb", channel, origin, absorbing)`` — single-hop only: a
  reference edge into the absorbing state, redirected to the renewal
  start ``(1,0)_1`` so the product chain is recurrent by construction
  (mirroring ``merge_states`` in the i.i.d. model).  These tags also
  carry the renewal flow used for the expected receiver lifetime.
* ``("to_bad",)`` / ``("to_good",)`` — the channel flip edges, one per
  product state, at the modulator's flip rates.

Each channel slice holds one product edge per distinct ``(origin,
destination)`` pair of the base's own spec list, in first-seen order, so
the product covers every edge the base can have at any loss; an edge
whose rate is zero at a channel's loss is simply skipped by the rate
dict and carries a zero rate in the template.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
from collections.abc import Callable

from repro.core.markov import StateSpace, spec_rates, spec_tags
from repro.core.multihop.topology import Topology
from repro.core.multihop.messages import tree_message_components
from repro.core.multihop.tree_states import tree_space
from repro.core.multihop.tree_transitions import build_tree_rates, tree_transition_specs
from repro.core.protocols import Protocol
from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import (
    build_transition_rates,
    recurrent_space,
    transition_specs,
)
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "CHANNEL_STATES",
    "MULTIHOP",
    "SINGLEHOP",
    "BaseFamily",
    "ChannelState",
    "build_gilbert_rates",
    "channel_loss",
    "gilbert_absorption_flow",
    "gilbert_space",
    "gilbert_specs",
    "gilbert_states",
    "gilbert_tag_rates",
]


class ChannelState(str, enum.Enum):
    """The two states of the Gilbert-Elliott loss modulator."""

    GOOD = "G"
    BAD = "B"

    def __str__(self) -> str:
        return self.value


CHANNEL_STATES: tuple[ChannelState, ...] = (ChannelState.GOOD, ChannelState.BAD)

def channel_loss(gilbert: GilbertElliottParameters, channel: ChannelState) -> float:
    """The loss probability the channel applies in ``channel``."""
    if channel is ChannelState.GOOD:
        return gilbert.loss_good
    return gilbert.loss_bad


@dataclasses.dataclass(frozen=True, eq=False)
class BaseFamily:
    """What the product lift needs from one i.i.d. chain family.

    ``shape(params)`` is the tuple of discrete inputs besides the
    protocol that fix the family's state space: ``()`` on a single hop,
    ``(hops,)`` on a chain.  ``space`` and ``edges`` take it unpacked.
    Records compare by identity; the two that exist are
    :data:`SINGLEHOP` and :data:`MULTIHOP`.
    """

    shape: Callable[..., tuple]
    #: ``(protocol, *shape)`` -> the recurrent protocol state space.
    space: Callable[..., StateSpace]
    #: ``(protocol, *shape)`` -> the ``(origin, destination)`` pairs of
    #: the base's spec list, each once, in first-seen order.
    edges: Callable[..., tuple]
    #: ``(protocol, params)`` -> the reference rate dict.
    rates: Callable[..., dict]
    #: ``(protocol, params, row, space)`` -> the message components of
    #: a row over the base's space.
    messages: Callable[..., dict[str, float]]
    #: The absorbing state, whose edges are redirected to ``start``.
    absorbing: object = None
    start: object = None


def _spec_edges(specs) -> tuple:
    """The distinct ``(origin, destination)`` pairs of ``specs``, in first-seen order."""
    return tuple(dict.fromkeys((origin, destination) for origin, destination, *_ in specs))


@functools.lru_cache(maxsize=256)
def _chain(hops: int) -> Topology:
    return Topology.chain(hops)


SINGLEHOP = BaseFamily(
    shape=lambda params: (),
    space=recurrent_space,
    edges=lambda protocol: _spec_edges(transition_specs(protocol)),
    rates=build_transition_rates,
    messages=message_rate_components,
    absorbing=S.ABSORBED,
    start=S.S10_FAST,
)

MULTIHOP = BaseFamily(
    shape=lambda params: (params.hops,),
    space=lambda protocol, hops: tree_space(_chain(hops), protocol is Protocol.HS),
    edges=lambda protocol, hops: _spec_edges(tree_transition_specs(protocol, _chain(hops))),
    rates=lambda protocol, params: build_tree_rates(protocol, params, _chain(params.hops)),
    messages=lambda protocol, params, row, space: tree_message_components(
        protocol, params, _chain(params.hops), row, space
    ),
)


# ----------------------------------------------------------------------
# Product states and the shared specs
# ----------------------------------------------------------------------


# The memos share the bound of ``gilbert_multihop_template``, so a chain
# length the template cache lets go does not keep its spec list alive.
@functools.lru_cache(maxsize=256)
def gilbert_states(
    base: BaseFamily, protocol: Protocol, *shape: int
) -> tuple[tuple[object, ChannelState], ...]:
    """Recurrent product states, channel-major (all good, then all bad)."""
    proto = base.space(protocol, *shape).states
    return tuple((state, channel) for channel in CHANNEL_STATES for state in proto)


@functools.lru_cache(maxsize=256)
def gilbert_space(base: BaseFamily, protocol: Protocol, *shape: int) -> StateSpace:
    """The product's state space: :func:`gilbert_states`, with the base
    space's consistent-node bitmasks laid out once per channel slice."""
    consistent = base.space(protocol, *shape).consistent
    return StateSpace(
        gilbert_states(base, protocol, *shape), consistent=consistent * len(CHANNEL_STATES)
    )


@functools.lru_cache(maxsize=256)
def gilbert_specs(
    base: BaseFamily, protocol: Protocol, *shape: int
) -> tuple[tuple[object, object, tuple], ...]:
    """The product edge list in canonical build order, naming every
    state by its object of :func:`gilbert_states`."""
    edges = base.edges(protocol, *shape)
    states = gilbert_states(base, protocol, *shape)
    product = {(id(state[0]), state[1]): state for state in states}
    specs: list[tuple[object, object, tuple]] = []
    for channel in CHANNEL_STATES:
        for origin, dest in edges:
            absorbed = dest is base.absorbing
            specs.append(
                (
                    product[id(origin), channel],
                    product[id(base.start if absorbed else dest), channel],
                    ("absorb" if absorbed else "proto", channel, origin, dest),
                )
            )
    for state in states:
        proto_state, channel = state
        if channel is ChannelState.GOOD:
            specs.append((state, product[id(proto_state), ChannelState.BAD], ("to_bad",)))
        else:
            specs.append((state, product[id(proto_state), ChannelState.GOOD], ("to_good",)))
    return tuple(specs)


# ----------------------------------------------------------------------
# Tag -> rate evaluation (shared by reference models and templates)
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=8192)
def _channel_rates(base: BaseFamily, protocol: Protocol, params, loss: float) -> dict:
    return base.rates(protocol, params.replace(loss_rate=loss))


def _rates_by_channel(
    base: BaseFamily, protocol: Protocol, params, gilbert: GilbertElliottParameters
) -> dict[ChannelState, dict]:
    """The reference rate dict of each channel slice, memoized per
    ``(protocol, params, loss)`` so repeated points reuse it."""
    return {
        channel: _channel_rates(base, protocol, params, channel_loss(gilbert, channel))
        for channel in CHANNEL_STATES
    }


def gilbert_tag_rates(
    base: BaseFamily,
    protocol: Protocol,
    params,
    gilbert: GilbertElliottParameters,
    tags,
) -> list[float]:
    """The rate of each of ``tags`` at one point: a protocol edge's rate
    is its pair's entry in its channel's reference rate dict (0 when the
    pair has no positive rate at that loss)."""
    by_channel = _rates_by_channel(base, protocol, params, gilbert)
    flips = {("to_bad",): gilbert.good_to_bad, ("to_good",): gilbert.bad_to_good}
    return [
        flips[tag] if len(tag) == 1 else by_channel[tag[1]].get(tag[2:], 0.0)
        for tag in tags
    ]


def build_gilbert_rates(
    base: BaseFamily,
    protocol: Protocol,
    params,
    gilbert: GilbertElliottParameters,
) -> dict[tuple[object, object], float]:
    """All product transition rates, spec-order accumulated."""
    specs = gilbert_specs(base, protocol, *base.shape(params))
    tags = spec_tags(specs)
    return spec_rates(specs, dict(zip(tags, gilbert_tag_rates(base, protocol, params, gilbert, tags))))


def gilbert_absorption_flow(
    base: BaseFamily,
    protocol: Protocol,
    params,
    gilbert: GilbertElliottParameters,
    row,
) -> float:
    """Stationary rate of renewal (absorption) events in the product
    chain, of a solved ``row`` over :func:`gilbert_states`.

    By renewal-reward the expected receiver lifetime is the mean
    inter-absorption time, ``1 / flow``.
    """
    shape = base.shape(params)
    position = {id(state): i for i, state in enumerate(gilbert_states(base, protocol, *shape))}
    by_channel = _rates_by_channel(base, protocol, params, gilbert)
    flow = 0.0
    for origin, _dest, tag in gilbert_specs(base, protocol, *shape):
        if tag[0] == "absorb":
            flow += by_channel[tag[1]].get(tag[2:], 0.0) * row[position[id(origin)]]
    return flow
