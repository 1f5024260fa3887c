"""Structure pin: every compiled template scatters exactly the reference rates.

For each template family and protocol, one point's ``edge_rates`` row,
accumulated over the template's ``rows``/``cols`` COO arrays into a
``{(origin, destination): rate}`` dict in edge order, must equal
(``==``, not approximately) the rate dict the family's reference model
builds for the same point.  Dense template solves are bit-identical to
the reference only because of this, so it is asserted on its own,
independently of any linear algebra.
"""

from __future__ import annotations

import pytest

from repro.core.gilbert import GilbertMultiHopModel, GilbertSingleHopModel
from repro.core.multihop import Topology, TreeModel
from repro.core.multihop.heterogeneous import HeterogeneousHop, hops_from_parameters
from repro.core.multihop.lumping import LumpedTreeModel
from repro.core.multihop.tree_states import MAX_ENUMERATED_TREE_STATES
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop.transitions import build_transition_rates
from repro.core.templates import (
    gilbert_multihop_template,
    gilbert_singlehop_template,
    iterative_tree_template,
    lumped_tree_template,
    singlehop_template,
    tree_template,
)
from repro.faults.gilbert import GilbertElliottParameters

MULTIHOP = Protocol.multihop_family()

SINGLEHOP_GRID = (
    kazaa_defaults(),
    kazaa_defaults().replace(loss_rate=0.0),
    kazaa_defaults().replace(loss_rate=0.3, delay=0.1),
    kazaa_defaults().with_coupled_timers(2.0),
    kazaa_defaults().replace(update_rate=0.0),
    kazaa_defaults().replace(external_false_signal_rate=0.0),
    kazaa_defaults().replace(removal_rate=1.0 / 60.0, retransmission_interval=0.5),
)

CHAIN_GRID = (
    reservation_defaults().replace(hops=1),
    reservation_defaults().replace(hops=3, loss_rate=0.1),
    reservation_defaults().replace(hops=20),
    reservation_defaults().replace(hops=7, loss_rate=0.0),
    reservation_defaults().replace(hops=5).with_coupled_timers(2.0),
)

HET_PARAMS = reservation_defaults().replace(hops=6)
HOP_VECTORS = (
    hops_from_parameters(HET_PARAMS),
    (HeterogeneousHop(0.2, 0.05),) + hops_from_parameters(HET_PARAMS)[1:],
    tuple(
        HeterogeneousHop(loss, delay)
        for loss, delay in zip(
            (0.0, 0.05, 0.01, 0.3, 0.0, 0.08),
            (0.01, 0.03, 0.02, 0.1, 0.05, 0.03),
        )
    ),
)

SHAPES = (
    Topology.chain(3),
    Topology.star(3),
    Topology.kary(2, 2),
    Topology.skewed(3),
    Topology.broom(2, 3),
)

CHANNELS = (
    GilbertElliottParameters.matched_average(0.05, 1.0),
    GilbertElliottParameters.matched_average(0.1, 0.5, mean_bad_duration=0.2),
)


def _tree_points(topology):
    base = reservation_defaults().replace(hops=topology.num_edges)
    return (base, base.replace(loss_rate=0.2), base.replace(loss_rate=0.0))


def singlehop_cases(protocol):
    for params in SINGLEHOP_GRID:
        yield (
            singlehop_template(protocol),
            params,
            build_transition_rates(protocol, params),
        )


def chain_cases(protocol):
    for params in CHAIN_GRID:
        chain = Topology.chain(params.hops)
        yield (
            tree_template(protocol, chain),
            params,
            TreeModel(protocol, params, chain).transition_rates(),
        )


def heterogeneous_cases(protocol):
    chain = Topology.chain(HET_PARAMS.hops)
    for hops in HOP_VECTORS:
        yield (
            tree_template(protocol, chain),
            (HET_PARAMS, hops),
            TreeModel(protocol, HET_PARAMS, chain, hops).chain().rates,
        )


def tree_cases(protocol):
    for topology in SHAPES:
        for params in _tree_points(topology):
            yield (
                tree_template(protocol, topology),
                params,
                TreeModel(protocol, params, topology).transition_rates(),
            )


def iterative_tree_cases(protocol):
    for topology in SHAPES:
        for params in _tree_points(topology):
            model = TreeModel(
                protocol,
                params,
                topology,
                max_states=MAX_ENUMERATED_TREE_STATES,
                solver="iterative",
            )
            yield (
                iterative_tree_template(protocol, topology),
                params,
                model.transition_rates(),
            )


def lumped_cases(protocol):
    for topology in SHAPES:
        for params in _tree_points(topology):
            yield (
                lumped_tree_template(protocol, topology),
                params,
                LumpedTreeModel(protocol, params, topology).transition_rates(),
            )


def gilbert_singlehop_cases(protocol):
    for params in SINGLEHOP_GRID[:3]:
        for gilbert in CHANNELS:
            yield (
                gilbert_singlehop_template(protocol),
                (params, gilbert),
                GilbertSingleHopModel(protocol, params, gilbert).chain().rates,
            )


def gilbert_multihop_cases(protocol):
    for params in CHAIN_GRID[:3]:
        for gilbert in CHANNELS:
            yield (
                gilbert_multihop_template(protocol, params.hops),
                (params, gilbert),
                GilbertMultiHopModel(protocol, params, gilbert).chain().rates,
            )


FAMILIES = {
    "singlehop": (tuple(Protocol), singlehop_cases),
    "chain": (MULTIHOP, chain_cases),
    "heterogeneous": (MULTIHOP, heterogeneous_cases),
    "tree-direct": (MULTIHOP, tree_cases),
    "tree-iterative": (MULTIHOP, iterative_tree_cases),
    "lumped": (MULTIHOP, lumped_cases),
    "gilbert-singlehop": (tuple(Protocol), gilbert_singlehop_cases),
    "gilbert-multihop": (MULTIHOP, gilbert_multihop_cases),
}

CASES = [
    (family, protocol)
    for family, (protocols, _) in FAMILIES.items()
    for protocol in protocols
]


def accumulated_rates(template, point) -> dict:
    """Sum one point's positive off-diagonal edge rates by state pair."""
    row = template.edge_rates([point])[0]
    rates: dict = {}
    for i, j, rate in zip(template.rows.tolist(), template.cols.tolist(), row.tolist()):
        if rate > 0.0 and i != j:
            key = (template.states[i], template.states[j])
            rates[key] = rates.get(key, 0.0) + rate
    return rates


@pytest.mark.parametrize(
    ("family", "protocol"), CASES, ids=[f"{f}-{p.value}" for f, p in CASES]
)
def test_edge_rates_accumulate_to_reference_rates(family, protocol):
    _, cases = FAMILIES[family]
    for template, point, reference in cases(protocol):
        assert accumulated_rates(template, point) == reference
