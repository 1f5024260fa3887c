"""Pin the Gilbert-Elliott product models' outputs bit for bit.

Every case is one ``(family, protocol, channel)``: three single-hop
parameter points or four chain points, solved on one channel.  Each case
is solved four ways, the reference model, the ``solve_gilbert_*_tasks``
template entry point, and the ``solve_gilbert_*_batch`` runtime path with
templates on and with ``REPRO_TEMPLATES=0`` (cache cleared before each),
and every way must digest (floats as ``float.hex``) to the recorded
value; chain states are rendered as the ``HopState`` repr the digests
were recorded with (:func:`state_repr`).  The compiled templates'
states, COO rows/cols and feature slots are pinned too, and the chain
templates also by an order-free twin of sorted edge tuples.  A refactor
of the product lift that keeps these passing keeps every Gilbert output
and every template structure unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import os
from unittest import mock

import pytest

from repro.core.gilbert import (
    CHANNEL_STATES,
    GilbertMultiHopModel,
    GilbertSingleHopModel,
)
from repro.core.multihop.tree_states import TreeState
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.templates import (
    gilbert_multihop_template,
    gilbert_singlehop_template,
    solve_gilbert_multihop_tasks,
    solve_gilbert_singlehop_tasks,
)
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime import solve_gilbert_multihop_batch, solve_gilbert_singlehop_batch
from repro.runtime.cache import global_cache

MULTIHOP = Protocol.multihop_family()

CHANNELS = {
    "degenerate": GilbertElliottParameters(0.05, 0.05, 0.5, 2.0),
    "good-lossless": GilbertElliottParameters(0.0, 0.4, 0.2, 1.0),
    "bad-total": GilbertElliottParameters(0.02, 1.0, 0.1, 1.0),
    "no-flip": GilbertElliottParameters(0.01, 0.3, 0.0, 1.0),
    "matched-a": GilbertElliottParameters.matched_average(0.05, 1.0),
    "matched-b": GilbertElliottParameters.matched_average(
        0.1, 0.5, mean_bad_duration=0.2
    ),
}

SINGLEHOP_POINTS = (
    kazaa_defaults(),
    kazaa_defaults().replace(delay=0.1, retransmission_interval=0.5),
    kazaa_defaults().replace(removal_rate=1.0 / 60.0, update_rate=0.0),
)

CHAIN_POINTS = (
    reservation_defaults().replace(hops=1),
    reservation_defaults().replace(hops=2, update_rate=0.1),
    reservation_defaults().replace(hops=5),
    reservation_defaults().replace(hops=3, external_false_signal_rate=0.0),
)

#: Above the sparse threshold, with protocol edges the bad state zeroes.
SPARSE_CHANNEL = GilbertElliottParameters(0.01, 0.5, 0.1, 1.0)
SPARSE_POINT = reservation_defaults().replace(hops=70)

FAMILIES = {
    "singlehop": (
        GilbertSingleHopModel,
        solve_gilbert_singlehop_tasks,
        solve_gilbert_singlehop_batch,
    ),
    "multihop": (
        GilbertMultiHopModel,
        solve_gilbert_multihop_tasks,
        solve_gilbert_multihop_batch,
    ),
}

PATHS = ("reference", "tasks", "batch", "batch-reference")


def _case_tasks(family, protocol, channel):
    if channel == "sparse":
        return [(protocol, SPARSE_POINT, SPARSE_CHANNEL)]
    points = SINGLEHOP_POINTS if family == "singlehop" else CHAIN_POINTS
    return [(protocol, params, CHANNELS[channel]) for params in points]


CASES = [
    (family, protocol, channel)
    for family, protocols in (("singlehop", tuple(Protocol)), ("multihop", MULTIHOP))
    for protocol in protocols
    for channel in CHANNELS
] + [("multihop", protocol, "sparse") for protocol in MULTIHOP]


def _all_tasks(family):
    return [
        task
        for case_family, protocol, channel in CASES
        if case_family == family
        for task in _case_tasks(family, protocol, channel)
    ]


@functools.lru_cache(maxsize=None)
def _solved(family, path):
    """Every task of ``family`` solved one way, keyed by task."""
    model, tasks_entry, batch = FAMILIES[family]
    tasks = _all_tasks(family)
    if path == "reference":
        solutions = [model(*task).solve() for task in tasks]
    elif path == "tasks":
        solutions = tasks_entry(tasks)
    else:
        setting = "0" if path == "batch-reference" else "1"
        with mock.patch.dict(os.environ, {"REPRO_TEMPLATES": setting}):
            global_cache().clear()
            try:
                solutions = batch(tasks, jobs=1)
            finally:
                global_cache().clear()
    return dict(zip(tasks, solutions))


def state_repr(key) -> str:
    """A product state's repr as the digests recorded it, when the chain
    model had its own ``HopState(consistent_hops, slow)`` class."""
    if isinstance(key, tuple):
        return "(" + ", ".join(map(state_repr, key)) + ")"
    if isinstance(key, TreeState):
        return f"HopState(consistent_hops={len(key.consistent)}, slow={bool(key.slow)})"
    return repr(key)


def _encode(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return tuple(_encode(item) for item in value)
    if isinstance(value, dict):
        return tuple((state_repr(key), _encode(item)) for key, item in value.items())
    return value


def digest(values) -> str:
    return hashlib.sha256(repr(_encode(values)).encode()).hexdigest()[:16]


def solution_fields(family, solution) -> tuple:
    common = (
        solution.stationary,
        solution.inconsistency_ratio,
        solution.message_breakdown,
        solution.message_rate,
        tuple(solution.channel_occupancy(channel) for channel in CHANNEL_STATES),
    )
    if family == "singlehop":
        return common + (
            solution.expected_receiver_lifetime,
            solution.total_messages,
            solution.normalized_message_rate,
            solution.integrated_cost(),
        )
    return common + (solution.hop_profile(), solution.integrated_cost())


def case_id(case) -> str:
    family, protocol, channel = case
    return f"{family}-{protocol.value}-{channel}"


PINNED = {
    "singlehop-SS-degenerate": "6efee906e564f80c",
    "singlehop-SS-good-lossless": "bfff6c2d53effaa2",
    "singlehop-SS-bad-total": "0f2e556d08700ce4",
    "singlehop-SS-no-flip": "382333010f9972e5",
    "singlehop-SS-matched-a": "1f5a179e16424280",
    "singlehop-SS-matched-b": "a8946043db343bbe",
    "singlehop-SS+ER-degenerate": "57f45a0d63141d7a",
    "singlehop-SS+ER-good-lossless": "80818405506d66f8",
    "singlehop-SS+ER-bad-total": "3e43873d71652d54",
    "singlehop-SS+ER-no-flip": "b3ec05b51d5ccca3",
    "singlehop-SS+ER-matched-a": "0c56c35bf72b7da8",
    "singlehop-SS+ER-matched-b": "920abdb821cd2d08",
    "singlehop-SS+RT-degenerate": "97604434bb363f6b",
    "singlehop-SS+RT-good-lossless": "7e0016914bcc41f3",
    "singlehop-SS+RT-bad-total": "8efef8fb5641f4da",
    "singlehop-SS+RT-no-flip": "0a30afe1d2fc35f5",
    "singlehop-SS+RT-matched-a": "8b15b3397cbb8e66",
    "singlehop-SS+RT-matched-b": "aeda0f77d42c9a8a",
    "singlehop-SS+RTR-degenerate": "f1d84b2c85d4c9bf",
    "singlehop-SS+RTR-good-lossless": "f468682dfe2dbad1",
    "singlehop-SS+RTR-bad-total": "8f743809a871df55",
    "singlehop-SS+RTR-no-flip": "1fe804f16b1431b8",
    "singlehop-SS+RTR-matched-a": "9c087e0b531d4e3a",
    "singlehop-SS+RTR-matched-b": "a9d711265e25556b",
    "singlehop-HS-degenerate": "496137c296c96ff9",
    "singlehop-HS-good-lossless": "cac83a59baddd256",
    "singlehop-HS-bad-total": "49dc675fce0f13b0",
    "singlehop-HS-no-flip": "bcdc62c5126a6daa",
    "singlehop-HS-matched-a": "4167390dc6953d9f",
    "singlehop-HS-matched-b": "1895603b8e24b4d7",
    "multihop-SS-degenerate": "8aa3ced08bec116c",
    "multihop-SS-good-lossless": "265c2cb06d0176ba",
    "multihop-SS-bad-total": "a9bf5d5ac540b9eb",
    "multihop-SS-no-flip": "1ba64f39b0d03cc0",
    "multihop-SS-matched-a": "9168db1f5af7fa80",
    "multihop-SS-matched-b": "75f2e7f4654043c1",
    "multihop-SS+RT-degenerate": "63a980b4fc900e3a",
    "multihop-SS+RT-good-lossless": "4684b6a216bbc22f",
    "multihop-SS+RT-bad-total": "9f53e5e706623b5a",
    "multihop-SS+RT-no-flip": "694d59b96e62f8f3",
    "multihop-SS+RT-matched-a": "208654ea52bf3b66",
    "multihop-SS+RT-matched-b": "4d1f4c8abdecf70a",
    "multihop-HS-degenerate": "15cfaf5f49aa798a",
    "multihop-HS-good-lossless": "8a2861a8b7f0469a",
    "multihop-HS-bad-total": "7f8372a879289979",
    "multihop-HS-no-flip": "ab86f5ce578744da",
    "multihop-HS-matched-a": "d3e54a9f2d430d70",
    "multihop-HS-matched-b": "1a78d9acfc98f722",
    "multihop-SS-sparse": "8f4e3eb891417fef",
    "multihop-SS+RT-sparse": "eac793626584e8c4",
    "multihop-HS-sparse": "4a0f61dc80bb9b54",
}

TEMPLATES = [("singlehop", protocol, 1) for protocol in Protocol] + [
    ("multihop", protocol, hops) for protocol in MULTIHOP for hops in (1, 3, 5)
]


def template_id(case) -> str:
    family, protocol, hops = case
    return f"{family}-{protocol.value}" + (f"-{hops}hop" if family == "multihop" else "")


PINNED_TEMPLATES = {
    "singlehop-SS": "6f182f0a4398a9ae",
    "singlehop-SS+ER": "fb79d9ddc98af8c1",
    "singlehop-SS+RT": "6f182f0a4398a9ae",
    "singlehop-SS+RTR": "fb79d9ddc98af8c1",
    "singlehop-HS": "fb79d9ddc98af8c1",
    "multihop-SS-1hop": "ecdf835c96ab83f3",
    "multihop-SS-3hop": "9fa9e78f841660e0",
    "multihop-SS-5hop": "d3fb126393dd1c8a",
    "multihop-SS+RT-1hop": "ecdf835c96ab83f3",
    "multihop-SS+RT-3hop": "9fa9e78f841660e0",
    "multihop-SS+RT-5hop": "d3fb126393dd1c8a",
    "multihop-HS-1hop": "e546560973ce4e10",
    "multihop-HS-3hop": "1341a19072ce06d6",
    "multihop-HS-5hop": "d8269a4cd3efb822",
}


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_solutions_are_pinned(case, path):
    family, protocol, channel = case
    solved = _solved(family, path)
    fields = [
        solution_fields(family, solved[task])
        for task in _case_tasks(family, protocol, channel)
    ]
    assert digest(fields) == PINNED[case_id(case)]


@pytest.mark.parametrize("case", TEMPLATES, ids=template_id)
def test_template_structure_is_pinned(case):
    family, protocol, hops = case
    if family == "singlehop":
        template = gilbert_singlehop_template(protocol)
    else:
        template = gilbert_multihop_template(protocol, hops)
    structure = (
        tuple(repr(state) for state in template.states),
        template.rows.tolist(),
        template.cols.tolist(),
        template._features.tolist(),
    )
    assert digest(structure) == PINNED_TEMPLATES[template_id(case)]


def product_label(state) -> str:
    """A chain product state as its protocol state in the paper's
    ``(i,s)``/``F`` notation, whatever class holds it, then its channel."""
    proto, channel = state
    if hasattr(proto, "consistent_hops"):
        proto = f"({proto.consistent_hops},{int(proto.slow)})"
    elif hasattr(proto, "consistent"):
        proto = f"({len(proto.consistent)},{int(bool(proto.slow))})"
    return f"{proto}{channel}"


#: The order-free twins of the multi-hop template digests: the sorted
#: ``(origin, destination, float.hex of the edge rate on each channel)``
#: tuples at the chain point of the template's length, so a twin holds
#: whatever order the edges, states and feature slots come in.
PINNED_TEMPLATE_EDGE_SETS = {
    "multihop-SS-1hop": "2900b15b4828b661",
    "multihop-SS-3hop": "5c73bd4b11d26ab0",
    "multihop-SS-5hop": "a98bda3cd05c2d03",
    "multihop-SS+RT-1hop": "f21316e83ebd48c6",
    "multihop-SS+RT-3hop": "22a2f8e2271196b9",
    "multihop-SS+RT-5hop": "e70b411d22c430cb",
    "multihop-HS-1hop": "7b1b09ee9da9233a",
    "multihop-HS-3hop": "c83391cda6efc139",
    "multihop-HS-5hop": "32c60b9cb12f2f8b",
}

CHAIN_TEMPLATES = [case for case in TEMPLATES if case[0] == "multihop"]


@pytest.mark.parametrize("case", CHAIN_TEMPLATES, ids=template_id)
def test_template_edge_sets_are_pinned(case):
    _, protocol, hops = case
    template = gilbert_multihop_template(protocol, hops)
    params = next(point for point in CHAIN_POINTS if point.hops == hops)
    rates = template.edge_rates([(params, channel) for channel in CHANNELS.values()]).T
    edges = sorted(
        (
            product_label(template.states[i]),
            product_label(template.states[j]),
            *(rate.hex() for rate in row),
        )
        for i, j, row in zip(template.rows.tolist(), template.cols.tolist(), rates.tolist())
    )
    assert digest(edges) == PINNED_TEMPLATE_EDGE_SETS[template_id(case)]
