"""Pin the memo-cache keys every batch solver writes.

One fixed task set covers every model family and every backend route,
including ``"auto"`` tasks that must share an entry with their resolved
explicit twin.  Each batch runs with the compiled-template path on and
off (``REPRO_TEMPLATES``): both paths must land exactly the keys listed
here, each holding the solution the batch returned for its task.
"""

from __future__ import annotations

import pytest

from repro.core.multihop import Topology
from repro.core.multihop.heterogeneous import HeterogeneousHop, hops_from_parameters
from repro.core.parameters import MultiHopParameters, kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime import (
    global_cache,
    solve_gilbert_multihop_batch,
    solve_gilbert_singlehop_batch,
    solve_heterogeneous_batch,
    solve_multihop_batch,
    solve_singlehop_batch,
    solve_tree_batch,
)
from repro.runtime.cache import cache_key

SS = Protocol.SS
SINGLEHOP = kazaa_defaults()
CHAIN_3 = MultiHopParameters(hops=3, loss_rate=0.07)
CHAIN_130 = MultiHopParameters(hops=130, loss_rate=0.0137)
HET = reservation_defaults().replace(hops=3)
HET_HOPS = (HeterogeneousHop(0.2, 0.05),) + hops_from_parameters(HET)[1:]
HET_KEY = tuple((hop.loss_rate, hop.delay) for hop in HET_HOPS)
STAR_2 = Topology.star(2)
STAR_8 = Topology.star(8)
TREE_2 = reservation_defaults().replace(hops=STAR_2.num_edges)
TREE_8 = reservation_defaults().replace(hops=STAR_8.num_edges)
GILBERT_2 = reservation_defaults().replace(hops=2)
DEGENERATE = GilbertElliottParameters(0.05, 0.05, 0.5, 2.0)
BURSTY = GilbertElliottParameters(0.01, 0.4, 0.2, 1.0)

EXACT = "exact"
TOLERANCE = "tolerance"

#: ``(batch, [(task, expected cache key), ...])`` per model family.
CASES = {
    "singlehop": (
        solve_singlehop_batch,
        [
            ((SS, SINGLEHOP), cache_key("singlehop", SS, SINGLEHOP)),
            ((Protocol.HS, SINGLEHOP), cache_key("singlehop", Protocol.HS, SINGLEHOP)),
        ],
    ),
    "multihop": (
        solve_multihop_batch,
        [
            ((SS, CHAIN_3), cache_key("multihop", SS, CHAIN_3, ("template", EXACT))),
            (
                (SS, CHAIN_3, "auto"),
                cache_key("multihop", SS, CHAIN_3, ("template", EXACT)),
            ),
            (
                (SS, CHAIN_3, "template"),
                cache_key("multihop", SS, CHAIN_3, ("template", EXACT)),
            ),
            (
                (SS, CHAIN_3, "structured"),
                cache_key("multihop", SS, CHAIN_3, ("structured", TOLERANCE)),
            ),
            (
                (SS, CHAIN_130),
                cache_key("multihop", SS, CHAIN_130, ("structured", TOLERANCE)),
            ),
            (
                (SS, CHAIN_130, "template"),
                cache_key("multihop", SS, CHAIN_130, ("template", EXACT)),
            ),
            (
                (SS, CHAIN_130, "structured"),
                cache_key("multihop", SS, CHAIN_130, ("structured", TOLERANCE)),
            ),
        ],
    ),
    "heterogeneous": (
        solve_heterogeneous_batch,
        [
            (
                (SS, HET, HET_HOPS),
                cache_key("heterogeneous", SS, HET, (HET_KEY, "template", EXACT)),
            ),
            (
                (SS, HET, HET_HOPS, "auto"),
                cache_key("heterogeneous", SS, HET, (HET_KEY, "template", EXACT)),
            ),
            (
                (SS, HET, HET_HOPS, "structured"),
                cache_key("heterogeneous", SS, HET, (HET_KEY, "structured", TOLERANCE)),
            ),
        ],
    ),
    "tree": (
        solve_tree_batch,
        [
            (
                (SS, TREE_2, STAR_2),
                cache_key("tree", SS, TREE_2, (STAR_2.parents, "direct", EXACT)),
            ),
            (
                (SS, TREE_2, STAR_2, "auto"),
                cache_key("tree", SS, TREE_2, (STAR_2.parents, "direct", EXACT)),
            ),
            (
                (SS, TREE_2, STAR_2, "lumped"),
                cache_key("tree", SS, TREE_2, (STAR_2.parents, "lumped", TOLERANCE)),
            ),
            (
                (SS, TREE_2, STAR_2, "iterative"),
                cache_key("tree", SS, TREE_2, (STAR_2.parents, "iterative", TOLERANCE)),
            ),
            (
                (SS, TREE_8, STAR_8),
                cache_key("tree", SS, TREE_8, (STAR_8.parents, "lumped", TOLERANCE)),
            ),
        ],
    ),
    "gilbert-singlehop": (
        solve_gilbert_singlehop_batch,
        [
            (
                (SS, SINGLEHOP, DEGENERATE),
                cache_key("gilbert-singlehop", SS, SINGLEHOP, DEGENERATE),
            ),
            (
                (SS, SINGLEHOP, BURSTY),
                cache_key("gilbert-singlehop", SS, SINGLEHOP, BURSTY),
            ),
        ],
    ),
    "gilbert-multihop": (
        solve_gilbert_multihop_batch,
        [
            (
                (SS, GILBERT_2, DEGENERATE),
                cache_key("gilbert-multihop", SS, GILBERT_2, DEGENERATE),
            ),
            (
                (SS, GILBERT_2, BURSTY),
                cache_key("gilbert-multihop", SS, GILBERT_2, BURSTY),
            ),
        ],
    ),
}


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    yield
    global_cache().clear()


@pytest.mark.parametrize("templates", ["1", "0"], ids=["templates", "reference"])
@pytest.mark.parametrize("family", sorted(CASES))
def test_batch_lands_exactly_the_pinned_keys(family, templates, monkeypatch):
    monkeypatch.setenv("REPRO_TEMPLATES", templates)
    batch, cases = CASES[family]
    tasks = [task for task, _ in cases]
    solutions = batch(tasks, jobs=1)
    cache = global_cache()
    expected = {key for _, key in cases}
    assert len(cache) == len(expected)
    for (_, key), solution in zip(cases, solutions):
        assert key in cache
        assert cache.get(key) is solution


def test_auto_tasks_share_their_resolved_twin():
    # star(8) is over the direct cap: "auto" resolves to lumped.
    auto, explicit = solve_tree_batch(
        [(SS, TREE_8, STAR_8), (SS, TREE_8, STAR_8, "lumped")], jobs=1
    )
    assert auto is explicit
    auto, explicit = solve_multihop_batch(
        [(SS, CHAIN_130), (SS, CHAIN_130, "structured")], jobs=1
    )
    assert auto is explicit
