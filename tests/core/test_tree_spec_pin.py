"""Pin the tree and lumped transition structure of every benchmark shape.

Every case is one ``(route, protocol, shape)`` of the 32 shapes the
perfbench ``tree_sweep`` workload solves: 15 direct (raw) trees, 14
lumped (orbit) trees and 3 iterative trees, whose raw state space is
enumerated up to
:data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`.
For each case the reference rate dict (``build_tree_rates`` or
``build_lumped_rates``) is digested in key order, floats as
``float.hex`` and states by their canonical position, at two points
(one at loss 0), and so is the compiled
template's structure: its states, COO rows and cols, feature slots,
multiplicities and tags.

The digests pin rate dicts, not raw spec tuples, so they hold whether a
spec list names its states by object or by index.  Hypothesis shapes of
up to 7 edges are held ``==`` (key order included) to oracles that
generate the specs the plain way: the raw tree with Python sets per
state and node, the lumped tree by re-sorting every successor multiset.
A refactor of either spec generator that keeps these passing keeps
every tree structure, and so every tree output, unchanged.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import spec_rates
from repro.core.multihop import Topology
from repro.core.multihop.lumping import (
    FAST,
    SLOW,
    LumpedTreeState,
    _sibling_groups,
    build_lumped_rates,
    lumped_state_space,
    lumped_transition_specs,
)
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    RECOVERY,
    TreeState,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import (
    build_tree_rates,
    tree_tag_rates,
    tree_transition_specs,
)
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.core.templates import (
    iterative_tree_template,
    lumped_tree_template,
    tree_template,
)

MULTIHOP = Protocol.multihop_family()

#: perfbench's tree_sweep shapes, by the route each one is solved on.
SHAPES = {
    "direct": (
        ("star", 2), ("star", 3), ("star", 4), ("star", 5), ("star", 6),
        ("kary", 2, 2), ("broom", 2, 2), ("broom", 2, 3), ("broom", 2, 4),
        ("broom", 3, 2), ("broom", 4, 2),
        ("skewed", 3), ("skewed", 4), ("skewed", 5), ("skewed", 6),
    ),
    "lumped": (
        ("star", 8), ("star", 10), ("star", 12), ("star", 16), ("star", 20),
        ("star", 24), ("star", 32), ("star", 64),
        ("broom", 2, 8), ("broom", 2, 12), ("broom", 2, 16), ("broom", 2, 24),
        ("kary", 2, 3), ("kary", 3, 2),
    ),
    "iterative": (("star", 5), ("skewed", 4), ("skewed", 5)),
}

CASES = [
    (route, protocol, shape)
    for route, shapes in SHAPES.items()
    for shape in shapes
    for protocol in MULTIHOP
]


def case_id(case) -> str:
    route, protocol, shape = case
    return f"{route}-{protocol.value}-{shape[0]}{'x'.join(map(str, shape[1:]))}"


def topology_of(shape) -> Topology:
    return getattr(Topology, shape[0])(*shape[1:])


def points(topology: Topology):
    base = reservation_defaults().replace(hops=topology.num_edges)
    return (base, base.replace(loss_rate=0.0, update_rate=0.1))


def reference_rates(route, protocol, topology, params) -> list:
    """The reference rate dict as ``(origin, destination, rate)`` in key
    order, each state named by its position in the canonical state space
    (the template digest pins the states themselves)."""
    with_recovery = protocol is Protocol.HS
    if route == "lumped":
        states = lumped_state_space(topology, with_recovery)
        rates = build_lumped_rates(protocol, params, topology)
    else:
        max_states = MAX_ENUMERATED_TREE_STATES if route == "iterative" else None
        states = tree_state_space(topology, with_recovery, max_states)
        rates = build_tree_rates(protocol, params, topology, max_states)
    index = {state: position for position, state in enumerate(states)}
    return [(index[origin], index[destination], rate) for (origin, destination), rate in rates.items()]


def template_of(route, protocol, topology):
    factory = {
        "direct": tree_template,
        "lumped": lumped_tree_template,
        "iterative": iterative_tree_template,
    }[route]
    return factory(protocol, topology)


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_encode(item) for item in value)
    if isinstance(value, dict):
        return tuple((repr(key), _encode(item)) for key, item in value.items())
    return value


def digest(values) -> str:
    return hashlib.sha256(repr(_encode(values)).encode()).hexdigest()[:16]


#: ``case id -> (rates digest at both points, template structure digest)``.
PINNED = {
    "direct-SS-star2": ("d40aec81c201e7ee", "6d0ac5d8865e92aa"),
    "direct-SS+RT-star2": ("cd04e772c664bbd0", "6d0ac5d8865e92aa"),
    "direct-HS-star2": ("ee3ca99e852f3a9e", "c2640f860d3e14db"),
    "direct-SS-star3": ("470aef610ceca79b", "bdc3f261f81b0a2a"),
    "direct-SS+RT-star3": ("5d2ca4859d55c347", "bdc3f261f81b0a2a"),
    "direct-HS-star3": ("e463799ea2b5a316", "c03e504151a03edf"),
    "direct-SS-star4": ("f4fa05a1b6d6d454", "d8d29603dd23c220"),
    "direct-SS+RT-star4": ("180f44fe24e3d0c4", "d8d29603dd23c220"),
    "direct-HS-star4": ("c8bb3a94220d9e19", "b0775526ad565274"),
    "direct-SS-star5": ("da47c69afa9cb19f", "541b2db41996e40a"),
    "direct-SS+RT-star5": ("4184f8536dfa30d0", "541b2db41996e40a"),
    "direct-HS-star5": ("001e5d53afbf26bc", "8ed9bb80d2548216"),
    "direct-SS-star6": ("ce669562eb3d8c53", "9c9986d757f03521"),
    "direct-SS+RT-star6": ("d3db12a2a9c6f68f", "9c9986d757f03521"),
    "direct-HS-star6": ("7f3bc6add3724217", "2ceabec477ea08d9"),
    "direct-SS-kary2x2": ("37cb62abcc71d8cc", "84841c5866d911f2"),
    "direct-SS+RT-kary2x2": ("df7b5559a81f4015", "84841c5866d911f2"),
    "direct-HS-kary2x2": ("08f5d6a7e33e625b", "1db3cc74dd316330"),
    "direct-SS-broom2x2": ("0e15e2448819c38b", "1bc3ac8e387086c0"),
    "direct-SS+RT-broom2x2": ("51ccf7e63d1756bf", "1bc3ac8e387086c0"),
    "direct-HS-broom2x2": ("538a35337a0584d3", "88277fe156ade946"),
    "direct-SS-broom2x3": ("527b846137bd1f47", "fc8ee34bf0070987"),
    "direct-SS+RT-broom2x3": ("a865f2d39bf47d51", "fc8ee34bf0070987"),
    "direct-HS-broom2x3": ("50c88d320b1b4f98", "a43bf3aaae5a2610"),
    "direct-SS-broom2x4": ("27aa4e5e2a1ec87f", "8da10569490039f4"),
    "direct-SS+RT-broom2x4": ("9bd31008dc60ef5f", "8da10569490039f4"),
    "direct-HS-broom2x4": ("a79e27bfdd9415a3", "eda87538691a9de6"),
    "direct-SS-broom3x2": ("fd98c6af259c2ccf", "84934cf4b7543256"),
    "direct-SS+RT-broom3x2": ("8ff3178465acc96a", "84934cf4b7543256"),
    "direct-HS-broom3x2": ("d645d4ee8240182a", "873776fbaad9c9a0"),
    "direct-SS-broom4x2": ("98ab620e39244804", "d367a730dd5261c4"),
    "direct-SS+RT-broom4x2": ("e7b7fa603cd2bfd6", "d367a730dd5261c4"),
    "direct-HS-broom4x2": ("5dd6996f9012d5eb", "ca7174239c128186"),
    "direct-SS-skewed3": ("d1ad0630b56e56f2", "fd115fc6f4a265eb"),
    "direct-SS+RT-skewed3": ("d7ca16ef432c0ae0", "fd115fc6f4a265eb"),
    "direct-HS-skewed3": ("52af7cece886b9b8", "4245f977c3cb60aa"),
    "direct-SS-skewed4": ("f1e31ec5a32bd416", "b1018be353bac8d7"),
    "direct-SS+RT-skewed4": ("7ddeb40ca67bea3d", "b1018be353bac8d7"),
    "direct-HS-skewed4": ("85995e219173d9b3", "e21024211fb48ed3"),
    "direct-SS-skewed5": ("1326c772209dc213", "eb441226f0efc2c6"),
    "direct-SS+RT-skewed5": ("d2b5526e1a0a81bd", "eb441226f0efc2c6"),
    "direct-HS-skewed5": ("7ad258e3daefd3e7", "adf5aa45d338cdb6"),
    "direct-SS-skewed6": ("5e968db05e08532d", "62757dce5fa610f6"),
    "direct-SS+RT-skewed6": ("a02fb90c9ed480ca", "62757dce5fa610f6"),
    "direct-HS-skewed6": ("bcf9efdca73ac24c", "71a9308e5625f46b"),
    "lumped-SS-star8": ("383424dc417bff6f", "24739e1538e34b04"),
    "lumped-SS+RT-star8": ("4f15555bf3a4e520", "24739e1538e34b04"),
    "lumped-HS-star8": ("db34f32f577a784c", "4a7fbcdf111c903c"),
    "lumped-SS-star10": ("42f98b559c90b835", "1dfb0539edcad7c6"),
    "lumped-SS+RT-star10": ("da7377e7be5764ee", "1dfb0539edcad7c6"),
    "lumped-HS-star10": ("c3d730a283f8656c", "0cbdeb8c169c9837"),
    "lumped-SS-star12": ("b6e83e09f0fbd0ff", "62686c9f6aeae5cf"),
    "lumped-SS+RT-star12": ("e11d748da98b48ce", "62686c9f6aeae5cf"),
    "lumped-HS-star12": ("7096fee0a18fee47", "0617ef07fa4fd304"),
    "lumped-SS-star16": ("b80d439c7bf592d6", "bedbac70dc1ede61"),
    "lumped-SS+RT-star16": ("e8da04366b97a9af", "bedbac70dc1ede61"),
    "lumped-HS-star16": ("41d3549506cddc78", "8874d038c28c6709"),
    "lumped-SS-star20": ("960da9fa7558d476", "f49aa19e45c7e00d"),
    "lumped-SS+RT-star20": ("7e90cd0b54723db5", "f49aa19e45c7e00d"),
    "lumped-HS-star20": ("55d5a08078c6558a", "6bbde350514f788b"),
    "lumped-SS-star24": ("29b075c80e5f60f4", "b14f9fc1a82cc7aa"),
    "lumped-SS+RT-star24": ("7b972c41a048f33b", "b14f9fc1a82cc7aa"),
    "lumped-HS-star24": ("80a6ed3429753eca", "f814d48b6ebcf457"),
    "lumped-SS-star32": ("022ff007d37d008e", "1ed617249ac7fe90"),
    "lumped-SS+RT-star32": ("b16218c573b68097", "1ed617249ac7fe90"),
    "lumped-HS-star32": ("fb8d8f32c2241f54", "236dba4c8624b8bb"),
    "lumped-SS-star64": ("3b6acbfaa81b5fcc", "d5c9c90d69f90924"),
    "lumped-SS+RT-star64": ("baddb3764a2f61e8", "d5c9c90d69f90924"),
    "lumped-HS-star64": ("5e2a021198781a8d", "79a9c058e65b042d"),
    "lumped-SS-broom2x8": ("5a8b04d9041caf7c", "3d1a6372e7c95674"),
    "lumped-SS+RT-broom2x8": ("2ba89ab54b225d98", "3d1a6372e7c95674"),
    "lumped-HS-broom2x8": ("6ace452047348f1f", "99f75b11d4939266"),
    "lumped-SS-broom2x12": ("29c980f8409ccaf6", "d15e84c1ca7c5811"),
    "lumped-SS+RT-broom2x12": ("e04554b31be925fa", "d15e84c1ca7c5811"),
    "lumped-HS-broom2x12": ("4c4cad568f397b5e", "d39a3bcbbb42cd52"),
    "lumped-SS-broom2x16": ("932c3693be4ca0e3", "2140bde191d30325"),
    "lumped-SS+RT-broom2x16": ("95ab9367f2dd9bef", "2140bde191d30325"),
    "lumped-HS-broom2x16": ("82b0f73f85f4c0b3", "383ff12f92690162"),
    "lumped-SS-broom2x24": ("baeae9cf1a2bc749", "5366fdaf94caecc2"),
    "lumped-SS+RT-broom2x24": ("64a284253a8d9e10", "5366fdaf94caecc2"),
    "lumped-HS-broom2x24": ("79db8bd066d81503", "ad97936445591cc9"),
    "lumped-SS-kary2x3": ("8e711a2a7b949c47", "96b80c0f0adaa7c9"),
    "lumped-SS+RT-kary2x3": ("7434ceee9ec4c17b", "96b80c0f0adaa7c9"),
    "lumped-HS-kary2x3": ("4d30e160ca37c97b", "0ac5db39d30625eb"),
    "lumped-SS-kary3x2": ("4ef762ec030fc3d8", "0ec3ed09e3c2a97b"),
    "lumped-SS+RT-kary3x2": ("0407c2e539a61e2e", "0ec3ed09e3c2a97b"),
    "lumped-HS-kary3x2": ("5d4c57870399b429", "49fa3185cbc7ea7c"),
    "iterative-SS-star5": ("da47c69afa9cb19f", "541b2db41996e40a"),
    "iterative-SS+RT-star5": ("4184f8536dfa30d0", "541b2db41996e40a"),
    "iterative-HS-star5": ("001e5d53afbf26bc", "8ed9bb80d2548216"),
    "iterative-SS-skewed4": ("f1e31ec5a32bd416", "b1018be353bac8d7"),
    "iterative-SS+RT-skewed4": ("7ddeb40ca67bea3d", "b1018be353bac8d7"),
    "iterative-HS-skewed4": ("85995e219173d9b3", "e21024211fb48ed3"),
    "iterative-SS-skewed5": ("1326c772209dc213", "eb441226f0efc2c6"),
    "iterative-SS+RT-skewed5": ("d2b5526e1a0a81bd", "eb441226f0efc2c6"),
    "iterative-HS-skewed5": ("7ad258e3daefd3e7", "adf5aa45d338cdb6"),
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reference_rates_are_pinned(case):
    route, protocol, shape = case
    topology = topology_of(shape)
    rates = [reference_rates(route, protocol, topology, p) for p in points(topology)]
    assert digest(rates) == PINNED[case_id(case)][0]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_template_structure_is_pinned(case):
    route, protocol, shape = case
    template = template_of(route, protocol, topology_of(shape))
    structure = (
        tuple(repr(state) for state in template.states),
        template.rows.tolist(),
        template.cols.tolist(),
        template._features.tolist(),
        template._multiplicities.tolist(),
        tuple(repr(tag) for tag in template._tags),
    )
    assert digest(structure) == PINNED[case_id(case)][1]


#: The order-free twins of the template digests: the sorted
#: ``(origin, destination, multiplicity, float.hex of the edge rate at
#: each point)`` tuples, so a twin holds whatever order the edges come in
#: and however the feature slots are numbered.
PINNED_EDGE_SETS = {
    "direct-SS-star2": "f396d43ea9413fc2",
    "direct-SS+RT-star2": "31c1a754e4edc91f",
    "direct-HS-star2": "8b5092502baca449",
    "direct-SS-star3": "793b6828e79a7650",
    "direct-SS+RT-star3": "b50b03d1b5533a65",
    "direct-HS-star3": "449f2994b5439d77",
    "direct-SS-star4": "39206c12758e6e82",
    "direct-SS+RT-star4": "1d78987fcfaaae58",
    "direct-HS-star4": "190617ec49368958",
    "direct-SS-star5": "1352b791cc3c0b78",
    "direct-SS+RT-star5": "bedfef35f2479288",
    "direct-HS-star5": "a9f59509f7c13d5b",
    "direct-SS-star6": "3508df70010c20a6",
    "direct-SS+RT-star6": "b680a1a9fc4112eb",
    "direct-HS-star6": "00ac5f8f499feeae",
    "direct-SS-kary2x2": "93d1684cfe49777b",
    "direct-SS+RT-kary2x2": "e678086ca01153ad",
    "direct-HS-kary2x2": "cf76cf373abb12f5",
    "direct-SS-broom2x2": "f604113ea024ec44",
    "direct-SS+RT-broom2x2": "baded48415387102",
    "direct-HS-broom2x2": "8465ba92e2eb1e1e",
    "direct-SS-broom2x3": "93ff1cf2a0cb0e07",
    "direct-SS+RT-broom2x3": "71315d094b51b8f4",
    "direct-HS-broom2x3": "6b03ad607c02f687",
    "direct-SS-broom2x4": "0978cb3e7f239fc6",
    "direct-SS+RT-broom2x4": "a8c3d3fb994605bc",
    "direct-HS-broom2x4": "5bec246bb32a38bc",
    "direct-SS-broom3x2": "181046deb1e9cbe7",
    "direct-SS+RT-broom3x2": "1eefa4cc35735eee",
    "direct-HS-broom3x2": "bc88aad0521eb43a",
    "direct-SS-broom4x2": "78b80d00ad8451a0",
    "direct-SS+RT-broom4x2": "f23c5defb6b7bc58",
    "direct-HS-broom4x2": "eb26b764a1552bde",
    "direct-SS-skewed3": "8c35b5bb95c17b52",
    "direct-SS+RT-skewed3": "2db5208f21b5bed0",
    "direct-HS-skewed3": "03cf8b3f4d5b8bfb",
    "direct-SS-skewed4": "3ae2994cf95e395e",
    "direct-SS+RT-skewed4": "379115981966efe3",
    "direct-HS-skewed4": "b4eef84963c8ed9b",
    "direct-SS-skewed5": "4a6b3175ed3241ea",
    "direct-SS+RT-skewed5": "ea9d90f3cb9083b4",
    "direct-HS-skewed5": "4400fdf83864ffda",
    "direct-SS-skewed6": "171ff36e7a309afa",
    "direct-SS+RT-skewed6": "47966797544f10c4",
    "direct-HS-skewed6": "e486bd84bb6bc414",
    "lumped-SS-star8": "47566f78c5f72afd",
    "lumped-SS+RT-star8": "a6240d9c13beef19",
    "lumped-HS-star8": "731264b14ecb153c",
    "lumped-SS-star10": "7864846c3f48c6ad",
    "lumped-SS+RT-star10": "c4b130e89e3f72c7",
    "lumped-HS-star10": "0d514b3aa3db81a8",
    "lumped-SS-star12": "a0855ddabedfeb49",
    "lumped-SS+RT-star12": "733cf5e8fa566b3a",
    "lumped-HS-star12": "a0981772d74fb21b",
    "lumped-SS-star16": "789a20a7b38b7af2",
    "lumped-SS+RT-star16": "3bad3a16428ab878",
    "lumped-HS-star16": "d1e768d382324bd0",
    "lumped-SS-star20": "8623647387ff8a4e",
    "lumped-SS+RT-star20": "b454ccdc3707e96a",
    "lumped-HS-star20": "6a2acc8ee04dbbd8",
    "lumped-SS-star24": "5ebf5c4298308337",
    "lumped-SS+RT-star24": "e4f356beb81d027d",
    "lumped-HS-star24": "4343aa5baa0ec077",
    "lumped-SS-star32": "f0123923774a5f63",
    "lumped-SS+RT-star32": "ee23f5b859d2cf22",
    "lumped-HS-star32": "dfaaad33c92cde17",
    "lumped-SS-star64": "26f040123d6ec4d7",
    "lumped-SS+RT-star64": "512c7c907d3752ec",
    "lumped-HS-star64": "cb1b4da82989349a",
    "lumped-SS-broom2x8": "2a462959daee703c",
    "lumped-SS+RT-broom2x8": "832236abc38a7bae",
    "lumped-HS-broom2x8": "969838845f90d0d4",
    "lumped-SS-broom2x12": "3b143422d325cb57",
    "lumped-SS+RT-broom2x12": "150d2ee3860f8606",
    "lumped-HS-broom2x12": "abe36ae881c3a080",
    "lumped-SS-broom2x16": "ad814e155fc70042",
    "lumped-SS+RT-broom2x16": "21ea5444fa029002",
    "lumped-HS-broom2x16": "15773d9b5213cd53",
    "lumped-SS-broom2x24": "10a54a68369db5a0",
    "lumped-SS+RT-broom2x24": "693305c7b2a8a4d0",
    "lumped-HS-broom2x24": "acc8c4a9eccb3ae3",
    "lumped-SS-kary2x3": "f7b31e13adc63556",
    "lumped-SS+RT-kary2x3": "39c833a8cc05421a",
    "lumped-HS-kary2x3": "026ca7fdcfb6f6e6",
    "lumped-SS-kary3x2": "0f50b99f8249bf50",
    "lumped-SS+RT-kary3x2": "b2f384fa1e07837c",
    "lumped-HS-kary3x2": "730f33953752e23f",
    "iterative-SS-star5": "1352b791cc3c0b78",
    "iterative-SS+RT-star5": "bedfef35f2479288",
    "iterative-HS-star5": "a9f59509f7c13d5b",
    "iterative-SS-skewed4": "3ae2994cf95e395e",
    "iterative-SS+RT-skewed4": "379115981966efe3",
    "iterative-HS-skewed4": "b4eef84963c8ed9b",
    "iterative-SS-skewed5": "4a6b3175ed3241ea",
    "iterative-SS+RT-skewed5": "ea9d90f3cb9083b4",
    "iterative-HS-skewed5": "4400fdf83864ffda",
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_template_edge_sets_are_pinned(case):
    route, protocol, shape = case
    topology = topology_of(shape)
    template = template_of(route, protocol, topology)
    states = template.states
    edges = sorted(
        (repr(states[i]), repr(states[j]), multiplicity, *(rate.hex() for rate in rates))
        for i, j, multiplicity, rates in zip(
            template.rows.tolist(),
            template.cols.tolist(),
            np.broadcast_to(template._multiplicities, template.rows.shape).tolist(),
            template.edge_rates(points(topology)).T.tolist(),
        )
    )
    assert digest(edges) == PINNED_EDGE_SETS[case_id(case)]


@pytest.mark.parametrize(
    "specs", [tree_transition_specs, lumped_transition_specs], ids=["tree", "lumped"]
)
def test_ss_rtr_message_is_pinned(specs):
    with pytest.raises(ValueError) as raised:
        specs(Protocol.SS_RTR, Topology.star(2))
    assert str(raised.value) == (
        "SS+RTR is not modeled in the multi-hop analysis; use one of ['SS', 'SS+RT', 'HS']"
    )


# ----------------------------------------------------------------------
# Oracles: the spec lists generated the plain way
# ----------------------------------------------------------------------


def _oracle_tree_specs(protocol, topology):
    """Raw tree specs from Python sets, scanned per state and node."""

    def advance(state, node):
        return TreeState(
            tuple(sorted(state.consistent + (node,))),
            tuple(v for v in state.slow if v != node),
        )

    def mark_slow(state, node):
        return TreeState(state.consistent, tuple(sorted(state.slow + (node,))))

    def timeout(state, node):
        removed = set(topology.subtree(node))
        consistent = tuple(v for v in state.consistent if v not in removed)
        slow = [v for v in state.slow if topology.parent(v) not in removed]
        return TreeState(consistent, tuple(sorted(slow + [node])))

    states = tree_state_space(topology, protocol is Protocol.HS)
    start = states[0]
    specs = [(state, start, ("update",)) for state in states[1:]]
    for state in states:
        if state is RECOVERY:
            continue
        in_consistent = set(state.consistent)
        for node in range(1, topology.num_nodes):
            parent = topology.parent(node)
            if node in in_consistent or not (parent == 0 or parent in in_consistent):
                continue
            if node in state.slow:
                specs.append((state, advance(state, node), ("recover", topology.depth(node))))
            else:
                specs.append((state, advance(state, node), ("advance",)))
                specs.append((state, mark_slow(state, node), ("lose",)))
        if protocol is Protocol.HS:
            specs.append((state, RECOVERY, ("to_recovery",)))
        else:
            for node in state.consistent:
                specs.append((state, timeout(state, node), ("timeout", topology.depth(node))))
    if protocol is Protocol.HS:
        specs.append((RECOVERY, start, ("from_recovery",)))
    return specs


def _oracle_lumped_specs(protocol, topology):
    """Lumped specs with every successor multiset re-sorted in full."""

    def crossed(node):
        return ("C", tuple((FAST,) * len(group) for group in _sibling_groups(topology, node)))

    def config_events(node, config):
        if config == FAST:
            yield ("advance",), 1, crossed(node)
            yield ("lose",), 1, SLOW
            return
        depth = topology.depth(node)
        if config == SLOW:
            yield ("recover", depth), 1, crossed(node)
            return
        if protocol is not Protocol.HS:
            yield ("timeout", depth), 1, SLOW
        for tag, mult, below in lifted_events(node, config[1]):
            yield tag, mult, ("C", below)

    def lifted_events(node, below):
        for position, group in enumerate(_sibling_groups(topology, node)):
            members = below[position]
            for index, member in enumerate(members):
                if member in members[:index]:
                    continue
                rest = members[:index] + members[index + 1 :]
                for tag, mult, successor in config_events(group[0], member):
                    new_members = tuple(sorted(rest + (successor,)))
                    yield (
                        tag,
                        members.count(member) * mult,
                        below[:position] + (new_members,) + below[position + 1 :],
                    )

    states = lumped_state_space(topology, protocol is Protocol.HS)
    start = states[0]
    specs = [(state, start, ("update",), 1) for state in states[1:]]
    for state in states:
        if state is RECOVERY:
            continue
        for tag, mult, below in lifted_events(0, state.groups):
            specs.append((state, LumpedTreeState(below), tag, mult))
        if protocol is Protocol.HS:
            specs.append((state, RECOVERY, ("to_recovery",), 1))
    if protocol is Protocol.HS:
        specs.append((RECOVERY, start, ("from_recovery",), 1))
    return specs


def _oracle_rates(specs, protocol, params, topology) -> dict:
    tags = list(dict.fromkeys(spec[2] for spec in specs))
    return spec_rates(specs, dict(zip(tags, tree_tag_rates(protocol, params, topology, tags))))


@st.composite
def parent_tuples(draw, max_edges=7):
    """A topology's ``parents``: each node hangs below a lower-numbered one."""
    edges = draw(st.integers(1, max_edges))
    return tuple(draw(st.integers(0, node)) for node in range(edges))


@settings(max_examples=40)
@given(parents=parent_tuples(), loss=st.sampled_from((0.0, 0.02, 0.3)))
def test_rates_match_the_oracles(parents, loss):
    topology = Topology(parents)
    params = reservation_defaults().replace(hops=topology.num_edges, loss_rate=loss)
    for protocol in MULTIHOP:
        raw = build_tree_rates(protocol, params, topology)
        oracle = _oracle_rates(_oracle_tree_specs(protocol, topology), protocol, params, topology)
        assert list(raw.items()) == list(oracle.items())
        lumped = build_lumped_rates(protocol, params, topology)
        oracle = _oracle_rates(_oracle_lumped_specs(protocol, topology), protocol, params, topology)
        assert list(lumped.items()) == list(oracle.items())
