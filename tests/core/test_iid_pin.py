"""Pin the i.i.d. chain families' outputs bit for bit.

Every case is one ``(family, protocol, shape)``: five single-hop points,
one chain length at three loss rates, one heterogeneous hop vector, or
two points on one tree shape.  Each case is solved every way the repo
offers — the reference model, the ``solve_*_tasks`` template entry
point, the structured O(hops) entry point (chains), and the
``solve_*_batch`` runtime path with templates on and with
``REPRO_TEMPLATES=0`` (cache cleared before each) — and every way must
digest (floats as ``float.hex``) to the recorded value.  The exact
paths share one digest; the structured kernel (a tolerance-class
backend) has its own, which the auto-routed batch shares above the
sparse threshold.

The chain is the tree model on ``Topology.chain(N)``; its solution
digests render each chain state as the ``HopState`` repr they were
recorded with (:func:`hop_repr`), so they pin the same floats since
before the chain became a unary tree.

The reference rate dicts are digested in key order, the compiled
single-hop and chain templates' states, COO rows/cols and one point's
edge-rate row are pinned (edge rates, not feature slots), and the exact
message of every bad input is pinned across models, templates, task
entry points and batches.  The chain's rate dicts and templates also
have order-free twins: sorted edge tuples in the paper's ``(i,s)``/``F``
notation, which hold whatever order the edges come in.  A refactor of
the models or templates that keeps these passing keeps every i.i.d.
output unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import os
from unittest import mock

import pytest

from repro.core.gilbert import GilbertMultiHopModel, GilbertSingleHopModel
from repro.core.multihop import Topology, TreeModel
from repro.core.multihop.heterogeneous import HeterogeneousHop
from repro.core.multihop.lumping import LumpedTreeModel
from repro.core.multihop.tree_states import MAX_ENUMERATED_TREE_STATES, TreeState
from repro.core.multihop.tree_transitions import build_tree_rates
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.core.singlehop.transitions import build_transition_rates
from repro.core.templates import (
    TreeTemplate,
    gilbert_multihop_template,
    select_chain_backend,
    singlehop_template,
    solve_heterogeneous_structured_tasks,
    solve_heterogeneous_tasks,
    solve_multihop_structured_tasks,
    solve_multihop_tasks,
    solve_singlehop_tasks,
    solve_tree_iterative_tasks,
    solve_tree_lumped_tasks,
    solve_tree_tasks,
    tree_template,
)
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime import (
    solve_heterogeneous_batch,
    solve_multihop_batch,
    solve_singlehop_batch,
    solve_tree_batch,
)
from repro.runtime.cache import global_cache

MULTIHOP = Protocol.multihop_family()

SINGLEHOP_POINTS = (
    kazaa_defaults(),
    kazaa_defaults().replace(loss_rate=0.0),
    kazaa_defaults().replace(loss_rate=0.3, delay=0.1),
    kazaa_defaults().with_coupled_timers(2.0),
    kazaa_defaults().replace(update_rate=0.0, external_false_signal_rate=0.0),
)

CHAIN_HOPS = (1, 3, 20, 127, 128)
CHAIN_LOSSES = (0.0, 0.02, 0.2)


def _hop_vector(hops):
    """A deterministic mix of clean, lossy, slow and lossless links."""
    return tuple(
        HeterogeneousHop((0.0, 0.05, 0.01, 0.3)[k % 4], (0.01, 0.03, 0.02, 0.1)[k % 5 % 4])
        for k in range(hops)
    )


HOP_VECTORS = {hops: _hop_vector(hops) for hops in (4, 20, 128)}

#: ``(shape name, topology, tree route)``.
TREES = (
    ("star3", Topology.star(3), "direct"),
    ("kary2x2", Topology.kary(2, 2), "direct"),
    ("star6", Topology.star(6), "direct"),
    ("star8", Topology.star(8), "lumped"),
    ("broom2x8", Topology.broom(2, 8), "lumped"),
    ("skewed4", Topology.skewed(4), "iterative"),
)


def _tree_points(topology):
    base = reservation_defaults().replace(hops=topology.num_edges)
    return (base, base.replace(loss_rate=0.2, update_rate=0.1))


CASES = (
    [("singlehop", protocol, "5pt") for protocol in Protocol]
    + [("chain", protocol, f"{hops}hop") for protocol in MULTIHOP for hops in CHAIN_HOPS]
    + [("het", protocol, f"{hops}hop") for protocol in MULTIHOP for hops in HOP_VECTORS]
    + [("tree", protocol, name) for protocol in MULTIHOP for name, _, _ in TREES]
)


def case_id(case) -> str:
    family, protocol, shape = case
    return f"{family}-{protocol.value}-{shape}"


def _tree(name):
    return next((topology, route) for shape, topology, route in TREES if shape == name)


def case_tasks(case) -> list[tuple]:
    """The case's batch tasks (tree tasks carry their route)."""
    family, protocol, shape = case
    if family == "singlehop":
        return [(protocol, params) for params in SINGLEHOP_POINTS]
    hops = int(shape.removesuffix("hop")) if family in ("chain", "het") else None
    if family == "chain":
        base = reservation_defaults().replace(hops=hops)
        return [(protocol, base.replace(loss_rate=loss)) for loss in CHAIN_LOSSES]
    if family == "het":
        return [(protocol, reservation_defaults().replace(hops=hops), HOP_VECTORS[hops])]
    topology, route = _tree(shape)
    return [(protocol, params, topology, route) for params in _tree_points(topology)]


_TREE_REFERENCES = {
    "direct": TreeModel,
    "lumped": LumpedTreeModel,
    "iterative": functools.partial(
        TreeModel, max_states=MAX_ENUMERATED_TREE_STATES, solver="iterative"
    ),
}
_TREE_TASKS = {
    "direct": solve_tree_tasks,
    "lumped": solve_tree_lumped_tasks,
    "iterative": solve_tree_iterative_tasks,
}
_BATCHES = {
    "singlehop": solve_singlehop_batch,
    "chain": solve_multihop_batch,
    "het": solve_heterogeneous_batch,
    "tree": solve_tree_batch,
}


def reference_model(family, task):
    if family == "singlehop":
        return SingleHopModel(*task)
    if family in ("chain", "het"):
        protocol, params, *links = task
        return TreeModel(protocol, params, Topology.chain(params.hops), *links)
    return _TREE_REFERENCES[task[3]](*task[:3])


def solve(case, path) -> list:
    family = case[0]
    tasks = case_tasks(case)
    if path == "reference":
        return [reference_model(family, task).solve() for task in tasks]
    if path in ("batch", "batch-reference"):
        setting = "0" if path == "batch-reference" else "1"
        with mock.patch.dict(os.environ, {"REPRO_TEMPLATES": setting}):
            global_cache().clear()
            try:
                return _BATCHES[family](tasks, jobs=1)
            finally:
                global_cache().clear()
    if family == "singlehop":
        return solve_singlehop_tasks(tasks)
    if family == "tree":
        return _TREE_TASKS[tasks[0][3]]([task[:3] for task in tasks])
    entries = {
        ("chain", "tasks"): solve_multihop_tasks,
        ("chain", "structured"): solve_multihop_structured_tasks,
        ("het", "tasks"): solve_heterogeneous_tasks,
        ("het", "structured"): solve_heterogeneous_structured_tasks,
    }
    return entries[(family, path)](tasks)


def paths(case) -> tuple[str, ...]:
    base = ("reference", "tasks", "batch", "batch-reference")
    return base + ("structured",) if case[0] in ("chain", "het") else base


def uses_structured_digest(case, path) -> bool:
    """Whether ``path`` solves ``case`` on the structured kernel."""
    if path == "structured":
        return True
    if path != "batch" or case[0] not in ("chain", "het"):
        return False
    protocol, params = case_tasks(case)[0][:2]
    return select_chain_backend(protocol, params.hops) == "structured"


def hop_repr(state) -> str:
    """A chain state's repr as the digests recorded it, when the chain
    model had its own ``HopState(consistent_hops, slow)`` class."""
    if isinstance(state, TreeState):
        return f"HopState(consistent_hops={len(state.consistent)}, slow={bool(state.slow)})"
    return repr(state)


def _encode(value, label=repr):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_encode(item, label) for item in value)
    if isinstance(value, dict):
        return tuple((label(key), _encode(item, label)) for key, item in value.items())
    return value


def digest(values, label=repr) -> str:
    """The digest of ``values``, each mapping key rendered by ``label``."""
    return hashlib.sha256(repr(_encode(values, label)).encode()).hexdigest()[:16]


def paper_label(state) -> str:
    """A chain state in the paper's ``(i,s)``/``F`` notation: its
    consistent hop count and slow flag, whatever class holds it."""
    if hasattr(state, "consistent_hops"):
        return f"({state.consistent_hops},{int(state.slow)})"
    if hasattr(state, "consistent"):
        return f"({len(state.consistent)},{int(bool(state.slow))})"
    return str(state)


def edge_set(edges) -> list:
    """``(origin, destination, rate)`` triples as sorted
    ``(origin label, destination label, float.hex(rate))`` tuples."""
    return sorted(
        (paper_label(origin), paper_label(destination), rate.hex())
        for origin, destination, rate in edges
    )


def solution_fields(family, solution) -> tuple:
    common = (
        solution.stationary,
        solution.message_breakdown,
        solution.message_rate,
        solution.inconsistency_ratio,
        solution.integrated_cost(),
    )
    if family == "singlehop":
        return common + (
            solution.expected_receiver_lifetime,
            solution.normalized_message_rate,
        )
    if family == "tree":
        return common + (
            solution.mean_leaf_inconsistency,
            solution.fanout_weighted_inconsistency,
        )
    return common + (solution.hop_profile(),)


def reference_rates(family, task) -> dict:
    """The reference rate dict, in the reference's key order."""
    if family == "singlehop":
        return build_transition_rates(*task)
    return reference_model(family, task).chain().rates


#: ``case id -> (exact digest, structured digest or None, rates digest)``.
PINNED = {
    "singlehop-SS-5pt": ("fecbc412e5e244ad", None, "73a973dcbf7db9c2"),
    "singlehop-SS+ER-5pt": ("6d7f00cce2a7d97a", None, "98f99bf966fd7a28"),
    "singlehop-SS+RT-5pt": ("37e482661b75e2bd", None, "eb05a9d05a224c74"),
    "singlehop-SS+RTR-5pt": ("fd940f6c797cacfe", None, "39ee3bb1c2d5e232"),
    "singlehop-HS-5pt": ("44b67c4dff44a320", None, "bae77af19fe1eccd"),
    "chain-SS-1hop": ("966f8026f4583a3d", "0b7a0829bb700d1a", "da3fbbb448e8ba76"),
    "chain-SS-3hop": ("aac75e2ae17af817", "3b3204b27cd8f826", "81ea95f9c42f25ce"),
    "chain-SS-20hop": ("8c123e855d881f78", "b2a5fe3796e9d7a5", "ec6be3b7b0460a1a"),
    "chain-SS-127hop": ("2c03af9becea4d88", "e4df20ecf71bc9ab", "c95abc934773d415"),
    "chain-SS-128hop": ("856e6a1ca1da6937", "f92b350b2e613f95", "e695c48a5b0805aa"),
    "chain-SS+RT-1hop": ("9c151649ae84b930", "ec2a58d2bf789efb", "ab7edf8298d1a939"),
    "chain-SS+RT-3hop": ("ebe16cb28c2e6cc0", "87f19d3c7827e2d5", "f2c3df605dc8992d"),
    "chain-SS+RT-20hop": ("afd0240a91787d01", "34c68447ca984720", "a0c3f913c246cb84"),
    "chain-SS+RT-127hop": ("15b3ca1507dc024f", "b2bccfb0cd2baac2", "f129a30729fdf3bd"),
    "chain-SS+RT-128hop": ("4b630d59b31709e9", "f3128c0908c6227e", "1e0bf24ab6ea49e6"),
    "chain-HS-1hop": ("113d2cc0791492f8", "7c42a82602a85d39", "085f8a359b765132"),
    "chain-HS-3hop": ("130cf4d882193ccc", "01fae700c45bcfb3", "b5da01563ce80a99"),
    "chain-HS-20hop": ("5e76953ed041add3", "e4af6a180656d0db", "f05a845004da4f84"),
    "chain-HS-127hop": ("10e8d0fb96e48f7f", "a5588a180d902598", "0e2f2fbed128610a"),
    "chain-HS-128hop": ("d465c80b94282723", "9460c22e1740af6a", "ae1a99191e5e40c8"),
    "het-SS-4hop": ("9affe392939f63b0", "58c589bf398e43cf", "f472771e00ee8fff"),
    "het-SS-20hop": ("241b039ab28da2f9", "7df0ac6b5a45736a", "d062cf06323877e7"),
    "het-SS-128hop": ("9721081606ec5724", "c3a4f77c85d97761", "174b84592b8496c7"),
    "het-SS+RT-4hop": ("dd8674a876c174a3", "1d45e098ac8fa5da", "19e08cc019e95216"),
    "het-SS+RT-20hop": ("e1dad544e75cc6ab", "e9bcc7261679c578", "305a2fd825c06f23"),
    "het-SS+RT-128hop": ("0bfe3a12556d9e8c", "c15a81007e97c9da", "b36053b025d6b9d6"),
    "het-HS-4hop": ("174112cf3ad55ebe", "64b7fabee5d55f99", "70dd9953b30c168b"),
    "het-HS-20hop": ("2000a68efbcc5b82", "ddc2b96719fd6d60", "ceff7fa21878d403"),
    "het-HS-128hop": ("34b9f62670920e8a", "15962140144631ee", "5e8548c2f677be13"),
    "tree-SS-star3": ("1c3d53026c3c752a", None, "93b8b48d3d9e3af9"),
    "tree-SS-kary2x2": ("fdace021e9e9a8f3", None, "f05af7273ab5741f"),
    "tree-SS-star6": ("d1062f850da52cd9", None, "76bd8cec36a7c650"),
    "tree-SS-star8": ("c730b203f7950a5e", None, "f211459d7ff06cbf"),
    "tree-SS-broom2x8": ("8eb60c6b638f6e15", None, "99a151f7a6e3e4f7"),
    "tree-SS-skewed4": ("06bf575af0401f13", None, "e337d3f067435dd2"),
    "tree-SS+RT-star3": ("f5fabc73fdd8854f", None, "e89e1d31e37bc9b8"),
    "tree-SS+RT-kary2x2": ("0277f0c5f1727c17", None, "6228f5e7bb19c520"),
    "tree-SS+RT-star6": ("9bff0634b3613474", None, "c17f672160381fc4"),
    "tree-SS+RT-star8": ("f868b3f7b3fb4818", None, "4f9457113daf2671"),
    "tree-SS+RT-broom2x8": ("9f91722dfaf9f202", None, "a1a5a732ef1fce91"),
    "tree-SS+RT-skewed4": ("39b9e3df25544951", None, "4471de26589ca23d"),
    "tree-HS-star3": ("d36c3e309dc2c9a0", None, "1b0a0e990e50b7fc"),
    "tree-HS-kary2x2": ("8c8a657f71f934c2", None, "0f61ae5b53f56334"),
    "tree-HS-star6": ("73c8c0dbc3776a98", None, "6187a1243158d02a"),
    "tree-HS-star8": ("91a05c798c926847", None, "ebe820d968cce321"),
    "tree-HS-broom2x8": ("00bcd3a9009c7b45", None, "020865686c6bf8a9"),
    "tree-HS-skewed4": ("215ca8d4f1f1f7e8", None, "016b8c630034843a"),
}

PIN_CASES = [(case, path) for case in CASES for path in paths(case)]


@pytest.mark.parametrize(
    ("case", "path"), PIN_CASES, ids=[f"{case_id(c)}-{p}" for c, p in PIN_CASES]
)
def test_solutions_are_pinned(case, path):
    fields = [solution_fields(case[0], solution) for solution in solve(case, path)]
    exact, structured, _ = PINNED[case_id(case)]
    label = hop_repr if case[0] in ("chain", "het") else repr
    assert digest(fields, label) == (structured if uses_structured_digest(case, path) else exact)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_reference_rates_are_pinned(case):
    rates = [list(reference_rates(case[0], task).items()) for task in case_tasks(case)]
    assert digest(rates) == PINNED[case_id(case)][2]


#: The order-free twins of the chain and heterogeneous rates digests:
#: each point's rate dict as an :func:`edge_set`, so a twin holds
#: whatever order the keys come in and whatever class holds the states.
PINNED_RATE_SETS = {
    "chain-SS-1hop": "8c5e77040aa8983c",
    "chain-SS-3hop": "66c557a87ea1a3c5",
    "chain-SS-20hop": "6b56b89b8aaa57cf",
    "chain-SS-127hop": "0385253a28b5996b",
    "chain-SS-128hop": "67b6c1f152288be8",
    "chain-SS+RT-1hop": "1c7ca58d88dd3c3f",
    "chain-SS+RT-3hop": "1ff0c8351aaa7d80",
    "chain-SS+RT-20hop": "18b88a8054c48bd4",
    "chain-SS+RT-127hop": "b5b1e8c7dc0ca101",
    "chain-SS+RT-128hop": "183a601699e56939",
    "chain-HS-1hop": "55214a33d088da5e",
    "chain-HS-3hop": "e392fbfe1b26b92c",
    "chain-HS-20hop": "29f25f45499a52a6",
    "chain-HS-127hop": "d0192eb7efc5c3c1",
    "chain-HS-128hop": "970e616aaa062d24",
    "het-SS-4hop": "6b376cdc6099e3da",
    "het-SS-20hop": "553fbbd49b3b8fa6",
    "het-SS-128hop": "468ad4f5e3c5dd94",
    "het-SS+RT-4hop": "7bc8648dd4b11660",
    "het-SS+RT-20hop": "2cd098897e3bd04d",
    "het-SS+RT-128hop": "ada885f41623797d",
    "het-HS-4hop": "d36a4bbcf3d0fc05",
    "het-HS-20hop": "b8d9c1686654c058",
    "het-HS-128hop": "1798ca6195a25d46",
}

RATE_SET_CASES = [case for case in CASES if case[0] in ("chain", "het")]


@pytest.mark.parametrize("case", RATE_SET_CASES, ids=case_id)
def test_reference_rate_sets_are_pinned(case):
    rates = [
        edge_set((*key, rate) for key, rate in reference_rates(case[0], task).items())
        for task in case_tasks(case)
    ]
    assert digest(rates) == PINNED_RATE_SETS[case_id(case)]


TEMPLATES = [("singlehop", protocol, None) for protocol in Protocol] + [
    ("chain", protocol, hops) for protocol in MULTIHOP for hops in (1, 3, 20)
]


def template_id(case) -> str:
    family, protocol, hops = case
    return f"{family}-{protocol.value}" + (f"-{hops}hop" if hops else "")


PINNED_TEMPLATES = {
    "singlehop-SS": "18ca03fb5a438338",
    "singlehop-SS+ER": "a4b4a24acb28517e",
    "singlehop-SS+RT": "5e5a8f2ab67e0614",
    "singlehop-SS+RTR": "0f88947497111c78",
    "singlehop-HS": "d20b6367fc516176",
    "chain-SS-1hop": "12e82bb703f368e2",
    "chain-SS-3hop": "fd14fc03b8ea0ab8",
    "chain-SS-20hop": "598d860894cdc652",
    "chain-SS+RT-1hop": "8c59c237c6260af9",
    "chain-SS+RT-3hop": "db64949b2ce3d5ef",
    "chain-SS+RT-20hop": "774703b41b92cb3a",
    "chain-HS-1hop": "e1b9899f715c13a8",
    "chain-HS-3hop": "ca7c43eb8e55359f",
    "chain-HS-20hop": "121823e12518b514",
}


def template_and_point(case) -> tuple:
    """The compiled template of a :data:`TEMPLATES` case and its point."""
    family, protocol, hops = case
    if family == "singlehop":
        return singlehop_template(protocol), kazaa_defaults()
    return tree_template(protocol, Topology.chain(hops)), reservation_defaults().replace(hops=hops)


@pytest.mark.parametrize("case", TEMPLATES, ids=template_id)
def test_template_structure_is_pinned(case):
    template, point = template_and_point(case)
    structure = (
        tuple(repr(state) for state in template.states),
        template.rows.tolist(),
        template.cols.tolist(),
        template.edge_rates([point])[0].tolist(),
    )
    assert digest(structure) == PINNED_TEMPLATES[template_id(case)]


#: The order-free twins of the chain template digests: the template's
#: edges at its point as an :func:`edge_set` (parallel edges kept).
PINNED_TEMPLATE_EDGE_SETS = {
    "chain-SS-1hop": "c9a3299e4d74e108",
    "chain-SS-3hop": "318af56edad4d84b",
    "chain-SS-20hop": "3696df465391faf4",
    "chain-SS+RT-1hop": "7079c4b42cd0b575",
    "chain-SS+RT-3hop": "7127b42b379bce1a",
    "chain-SS+RT-20hop": "a16727307d7de34f",
    "chain-HS-1hop": "2bfc1fbd64606ccb",
    "chain-HS-3hop": "6232ccdfc534b891",
    "chain-HS-20hop": "067d1f78c2f520af",
}

CHAIN_TEMPLATES = [case for case in TEMPLATES if case[0] == "chain"]


@pytest.mark.parametrize("case", CHAIN_TEMPLATES, ids=template_id)
def test_template_edge_sets_are_pinned(case):
    template, point = template_and_point(case)
    states = template.states
    edges = edge_set(
        (states[i], states[j], rate)
        for i, j, rate in zip(
            template.rows.tolist(), template.cols.tolist(), template.edge_rates([point])[0].tolist()
        )
    )
    assert digest(edges) == PINNED_TEMPLATE_EDGE_SETS[template_id(case)]


# ----------------------------------------------------------------------
# Bad inputs: the exact message every entry point raises
# ----------------------------------------------------------------------

_INFINITE = kazaa_defaults().replace(removal_rate=0.0)
_CHAIN3 = reservation_defaults().replace(hops=3)
_VECTOR2 = _hop_vector(2)
_CHANNEL = GilbertElliottParameters(0.01, 0.3, 0.1, 1.0)
_KARY = Topology.kary(2, 3)
_KARY_PARAMS = reservation_defaults().replace(hops=_KARY.num_edges)
_STAR3 = Topology.star(3)


def _batch(solver, tasks, templates):
    with mock.patch.dict(os.environ, {"REPRO_TEMPLATES": "1" if templates else "0"}):
        global_cache().clear()
        try:
            return solver(tasks, jobs=1)
        finally:
            global_cache().clear()


_FINITE = (
    "single-hop model requires a finite session (removal_rate > 0); "
    "the multi-hop model covers the infinite-lifetime regime"
)
_NOT_MODELED = (
    "SS+RTR is not modeled in the multi-hop analysis; use one of ['SS', 'SS+RT', 'HS']"
)
_HOPS_3_OF_4 = (
    "params.hops (3) must equal the topology's edge count (4); bind them together when sweeping"
)
_KARY_CAP = (
    "tree state space for topology (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6) exceeds "
    "4096 states (projected 15129); reduce the topology's fan-out or depth, or solve "
    "through the lumped or iterative backend"
)

BAD_INPUTS = {
    "singlehop-model-infinite": (
        lambda: SingleHopModel(Protocol.SS, _INFINITE),
        _FINITE,
    ),
    "singlehop-tasks-infinite": (
        lambda: solve_singlehop_tasks([(Protocol.HS, _INFINITE)]),
        _FINITE,
    ),
    "singlehop-batch-infinite": (
        lambda: _batch(solve_singlehop_batch, [(Protocol.SS_ER, _INFINITE)], True),
        _FINITE,
    ),
    "singlehop-batch-reference-infinite": (
        lambda: _batch(solve_singlehop_batch, [(Protocol.SS_ER, _INFINITE)], False),
        _FINITE,
    ),
    "gilbert-singlehop-infinite": (
        lambda: GilbertSingleHopModel(Protocol.SS, _INFINITE, _CHANNEL),
        _FINITE,
    ),
    "chain-model-rtr": (
        lambda: TreeModel(Protocol.SS_RTR, _CHAIN3, Topology.chain(3)),
        _NOT_MODELED,
    ),
    "chain-rates-rtr": (
        lambda: build_tree_rates(Protocol.SS_RTR, _CHAIN3, Topology.chain(3)),
        _NOT_MODELED,
    ),
    "chain-template-rtr": (lambda: tree_template(Protocol.SS_RTR, Topology.chain(3)), _NOT_MODELED),
    "chain-tasks-rtr": (lambda: solve_multihop_tasks([(Protocol.SS_RTR, _CHAIN3)]), _NOT_MODELED),
    "chain-batch-rtr": (
        lambda: _batch(solve_multihop_batch, [(Protocol.SS_RTR, _CHAIN3)], True),
        _NOT_MODELED,
    ),
    "chain-batch-reference-rtr": (
        lambda: _batch(solve_multihop_batch, [(Protocol.SS_RTR, _CHAIN3)], False),
        _NOT_MODELED,
    ),
    "het-model-rtr": (
        lambda: TreeModel(Protocol.SS_RTR, _CHAIN3, Topology.chain(3), _hop_vector(3)),
        _NOT_MODELED,
    ),
    "tree-model-rtr": (lambda: TreeModel(Protocol.SS_RTR, _CHAIN3, Topology.chain(3)), _NOT_MODELED),
    "lumped-model-rtr": (
        lambda: LumpedTreeModel(Protocol.SS_RTR, _CHAIN3, Topology.chain(3)),
        _NOT_MODELED,
    ),
    "tree-template-rtr": (lambda: tree_template(Protocol.SS_RTR, _STAR3), _NOT_MODELED),
    "gilbert-chain-rtr": (
        lambda: GilbertMultiHopModel(Protocol.SS_RTR, _CHAIN3, _CHANNEL),
        _NOT_MODELED,
    ),
    "chain-template-hops": (
        lambda: tree_template(Protocol.SS, Topology.chain(4)).solve_batch([_CHAIN3]),
        _HOPS_3_OF_4,
    ),
    "het-template-hops": (
        lambda: tree_template(Protocol.SS, Topology.chain(4)).solve_batch(
            [(_CHAIN3, _hop_vector(4))]
        ),
        _HOPS_3_OF_4,
    ),
    "het-template-vector": (
        lambda: tree_template(Protocol.SS, Topology.chain(3)).solve_batch([(_CHAIN3, _VECTOR2)]),
        "hop vector length 2 != params.hops 3",
    ),
    "het-tasks-vector": (
        lambda: solve_heterogeneous_tasks([(Protocol.HS, _CHAIN3, _VECTOR2)]),
        "hop vector length 2 != params.hops 3",
    ),
    "het-batch-vector": (
        lambda: _batch(solve_heterogeneous_batch, [(Protocol.SS_RT, _CHAIN3, _VECTOR2)], True),
        "hop vector length 2 != params.hops 3",
    ),
    "het-batch-reference-vector": (
        lambda: _batch(solve_heterogeneous_batch, [(Protocol.SS_RT, _CHAIN3, _VECTOR2)], False),
        "hop vector length 2 != params.hops 3",
    ),
    "het-model-vector": (
        lambda: TreeModel(Protocol.SS, _CHAIN3, Topology.chain(3), _VECTOR2),
        "hop vector length 2 != params.hops 3",
    ),
    "tree-model-links": (
        lambda: TreeModel(Protocol.SS, _CHAIN3, _STAR3, _hop_vector(3)),
        "a link profile needs a chain topology, got (0, 0, 0)",
    ),
    "tree-model-hops": (
        lambda: TreeModel(Protocol.SS, _CHAIN3, Topology.star(4)),
        _HOPS_3_OF_4,
    ),
    "tree-template-hops": (
        lambda: tree_template(Protocol.SS, Topology.star(4)).solve_batch([_CHAIN3]),
        _HOPS_3_OF_4,
    ),
    "gilbert-template-hops": (
        lambda: gilbert_multihop_template(Protocol.SS, 4).solve_batch([(_CHAIN3, _CHANNEL)]),
        "task has 3 hops, template compiled for 4",
    ),
    "tree-model-cap": (lambda: TreeModel(Protocol.SS, _KARY_PARAMS, _KARY), _KARY_CAP),
    "tree-template-cap": (lambda: tree_template(Protocol.HS, _KARY), _KARY_CAP),
    "tree-batch-cap": (
        lambda: _batch(solve_tree_batch, [(Protocol.SS, _KARY_PARAMS, _KARY, "direct")], True),
        _KARY_CAP,
    ),
    "tree-batch-reference-cap": (
        lambda: _batch(solve_tree_batch, [(Protocol.SS, _KARY_PARAMS, _KARY, "direct")], False),
        _KARY_CAP,
    ),
    "chain-batch-backend": (
        lambda: _batch(solve_multihop_batch, [(Protocol.SS, _CHAIN3, "bogus")], True),
        "chain backend must be one of ('auto', 'template', 'structured'), got 'bogus'",
    ),
    "tree-template-structured": (
        lambda: tree_template(Protocol.SS, _STAR3).solve_structured([_CHAIN3]),
        "the structured chain kernel needs a chain topology, got (0, 0, 0)",
    ),
    "tree-batch-backend": (
        lambda: _batch(solve_tree_batch, [(Protocol.SS, _CHAIN3, Topology.chain(3), "dense")], True),
        "tree backend must be one of ('auto', 'direct', 'lumped', 'iterative'), got 'dense'",
    ),
    "tree-template-solver": (
        lambda: TreeTemplate(Protocol.SS, _STAR3, solver="dense"),
        "solver must be 'direct' or 'iterative', got 'dense'",
    ),
    "tree-model-solver": (
        lambda: TreeModel(Protocol.SS, _CHAIN3, Topology.chain(3), solver="lu").solve(),
        "solver must be one of ('auto', 'dense', 'sparse', 'iterative'), got 'lu'",
    ),
}


@pytest.mark.parametrize("name", list(BAD_INPUTS))
def test_bad_input_messages_are_pinned(name):
    call, message = BAD_INPUTS[name]
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message
