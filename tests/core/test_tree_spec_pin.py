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
from repro.core.multihop.states import RECOVERY
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    TreeState,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import (
    build_tree_rates,
    tree_tag_rate,
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
    "direct-SS-star2": ("d40aec81c201e7ee", "6a88feb4d961183c"),
    "direct-SS+RT-star2": ("cd04e772c664bbd0", "6a88feb4d961183c"),
    "direct-HS-star2": ("ee3ca99e852f3a9e", "ace2ebb69d24b114"),
    "direct-SS-star3": ("470aef610ceca79b", "91d28f52870a4933"),
    "direct-SS+RT-star3": ("5d2ca4859d55c347", "91d28f52870a4933"),
    "direct-HS-star3": ("e463799ea2b5a316", "35c1d0a5357d642b"),
    "direct-SS-star4": ("f4fa05a1b6d6d454", "9933373c363d0345"),
    "direct-SS+RT-star4": ("180f44fe24e3d0c4", "9933373c363d0345"),
    "direct-HS-star4": ("c8bb3a94220d9e19", "6378e1e8e1dd0f77"),
    "direct-SS-star5": ("da47c69afa9cb19f", "e0436ade9be2fceb"),
    "direct-SS+RT-star5": ("4184f8536dfa30d0", "e0436ade9be2fceb"),
    "direct-HS-star5": ("001e5d53afbf26bc", "91be86096d770a4c"),
    "direct-SS-star6": ("ce669562eb3d8c53", "526b4df296588c49"),
    "direct-SS+RT-star6": ("d3db12a2a9c6f68f", "526b4df296588c49"),
    "direct-HS-star6": ("7f3bc6add3724217", "d727d8788fcbe71e"),
    "direct-SS-kary2x2": ("37cb62abcc71d8cc", "b1d1e777bd2a07cf"),
    "direct-SS+RT-kary2x2": ("df7b5559a81f4015", "b1d1e777bd2a07cf"),
    "direct-HS-kary2x2": ("08f5d6a7e33e625b", "94b3a62fca9758ba"),
    "direct-SS-broom2x2": ("0e15e2448819c38b", "fd9beab1c5b1dd39"),
    "direct-SS+RT-broom2x2": ("51ccf7e63d1756bf", "fd9beab1c5b1dd39"),
    "direct-HS-broom2x2": ("538a35337a0584d3", "1e2e65d722a12fdf"),
    "direct-SS-broom2x3": ("527b846137bd1f47", "87a9e1e8ca659120"),
    "direct-SS+RT-broom2x3": ("a865f2d39bf47d51", "87a9e1e8ca659120"),
    "direct-HS-broom2x3": ("50c88d320b1b4f98", "2d21a9e23abcdb1d"),
    "direct-SS-broom2x4": ("27aa4e5e2a1ec87f", "1ed2ba88623d407b"),
    "direct-SS+RT-broom2x4": ("9bd31008dc60ef5f", "1ed2ba88623d407b"),
    "direct-HS-broom2x4": ("a79e27bfdd9415a3", "91cedf8022e0e0df"),
    "direct-SS-broom3x2": ("fd98c6af259c2ccf", "539c703d36767b57"),
    "direct-SS+RT-broom3x2": ("8ff3178465acc96a", "539c703d36767b57"),
    "direct-HS-broom3x2": ("d645d4ee8240182a", "15b94106b618ab11"),
    "direct-SS-broom4x2": ("98ab620e39244804", "054e618b35107427"),
    "direct-SS+RT-broom4x2": ("e7b7fa603cd2bfd6", "054e618b35107427"),
    "direct-HS-broom4x2": ("5dd6996f9012d5eb", "7dd616fc8b57ddc4"),
    "direct-SS-skewed3": ("d1ad0630b56e56f2", "df34222caf789a81"),
    "direct-SS+RT-skewed3": ("d7ca16ef432c0ae0", "df34222caf789a81"),
    "direct-HS-skewed3": ("52af7cece886b9b8", "b2275b4b2be2b44d"),
    "direct-SS-skewed4": ("f1e31ec5a32bd416", "ef02ac8041fe0ad4"),
    "direct-SS+RT-skewed4": ("7ddeb40ca67bea3d", "ef02ac8041fe0ad4"),
    "direct-HS-skewed4": ("85995e219173d9b3", "9f48a076d883df96"),
    "direct-SS-skewed5": ("1326c772209dc213", "18707a55eeebfc64"),
    "direct-SS+RT-skewed5": ("d2b5526e1a0a81bd", "18707a55eeebfc64"),
    "direct-HS-skewed5": ("7ad258e3daefd3e7", "e26ef51c1bfe6ea3"),
    "direct-SS-skewed6": ("5e968db05e08532d", "40907c8772813011"),
    "direct-SS+RT-skewed6": ("a02fb90c9ed480ca", "40907c8772813011"),
    "direct-HS-skewed6": ("bcf9efdca73ac24c", "002de1950e381641"),
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
    "iterative-SS-star5": ("da47c69afa9cb19f", "e0436ade9be2fceb"),
    "iterative-SS+RT-star5": ("4184f8536dfa30d0", "e0436ade9be2fceb"),
    "iterative-HS-star5": ("001e5d53afbf26bc", "91be86096d770a4c"),
    "iterative-SS-skewed4": ("f1e31ec5a32bd416", "ef02ac8041fe0ad4"),
    "iterative-SS+RT-skewed4": ("7ddeb40ca67bea3d", "ef02ac8041fe0ad4"),
    "iterative-HS-skewed4": ("85995e219173d9b3", "9f48a076d883df96"),
    "iterative-SS-skewed5": ("1326c772209dc213", "18707a55eeebfc64"),
    "iterative-SS+RT-skewed5": ("d2b5526e1a0a81bd", "18707a55eeebfc64"),
    "iterative-HS-skewed5": ("7ad258e3daefd3e7", "e26ef51c1bfe6ea3"),
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


@pytest.mark.parametrize(
    "specs", [tree_transition_specs, lumped_transition_specs], ids=["tree", "lumped"]
)
def test_ss_rtr_message_is_pinned(specs):
    with pytest.raises(ValueError) as raised:
        specs(Protocol.SS_RTR, Topology.star(2))
    assert str(raised.value) == "Protocol.SS_RTR is not part of the multi-hop analysis"


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
    tags = dict.fromkeys(spec[2] for spec in specs)
    return spec_rates(specs, {tag: tree_tag_rate(protocol, params, topology, tag) for tag in tags})


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
