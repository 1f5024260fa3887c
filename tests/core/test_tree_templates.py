"""Compiled tree templates: exact parity with the reference model.

Mirrors ``tests/core/test_templates.py`` for the tree family: the
template path must be **bit-identical** to the per-point reference on
both sides of the sparse crossover (above it both solve the same
pinned sparse system), within tolerance of the dense oracle, and the
runtime batch helpers must dedupe and order results exactly like the
chain families.
"""

import math

import pytest

from repro.core import markov
from repro.core.multihop import LumpedTreeModel, Topology, TreeModel
from repro.core.templates import (
    TreeTemplate,
    solve_tree_lumped_tasks,
    solve_tree_tasks,
    tree_template,
)
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.runtime import global_cache, solve_tree_batch

MULTIHOP = Protocol.multihop_family()

SHAPES = (
    Topology.chain(3),
    Topology.star(3),
    Topology.kary(2, 2),
    Topology.skewed(3),
    Topology.broom(2, 3),
    # 729 and 323 states: above SPARSE_STATE_THRESHOLD, so the template
    # and the reference both solve the pinned sparse system.
    Topology.star(6),
    Topology.skewed(5),
)

METRICS = (
    "inconsistency_ratio",
    "message_rate",
    "mean_leaf_inconsistency",
    "fanout_weighted_inconsistency",
)


def params_for(topology, **overrides):
    return reservation_defaults().replace(hops=topology.num_edges, **overrides)


@pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
@pytest.mark.parametrize("topology", SHAPES, ids=lambda t: str(t.parents))
def test_template_bit_identical_to_reference(protocol, topology):
    variants = [
        params_for(topology),
        params_for(topology, loss_rate=0.2),
        params_for(topology, loss_rate=0.0),
        params_for(topology).with_coupled_timers(1.0),
    ]
    references = [TreeModel(protocol, params, topology).solve() for params in variants]
    template_solutions = tree_template(protocol, topology).solve_batch(variants)
    for reference, solution in zip(references, template_solutions):
        assert list(reference.stationary.values()) == list(
            solution.stationary.values()
        )
        for metric in METRICS:
            assert getattr(reference, metric) == getattr(solution, metric)
        assert reference.message_breakdown == solution.message_breakdown


def test_template_memoized_per_protocol_and_topology():
    a = tree_template(Protocol.SS, Topology.star(2))
    b = tree_template(Protocol.SS, Topology.star(2))
    c = tree_template(Protocol.SS, Topology.chain(2))
    assert a is b
    assert a is not c


@pytest.mark.parametrize(
    ("topology", "solve", "model"),
    [
        (Topology.star(6), solve_tree_tasks, TreeModel),
        (Topology.star(64), solve_tree_lumped_tasks, LumpedTreeModel),
    ],
    ids=["star6-direct", "star64-lumped"],
)
def test_sparse_crossover_within_tolerance(topology, solve, model):
    # star(6) has 729 raw states and star(64) 2145 orbits (2146 with
    # RECOVERY) — above SPARSE_STATE_THRESHOLD, so the template and its
    # reference solve the same pinned sparse system bit for bit, and
    # only the dense oracle is a tolerance comparison.
    params = params_for(topology)
    for protocol in MULTIHOP:
        reference = model(protocol, params, topology).solve()
        dense = model(protocol, params, topology, solver="dense").solve()
        solution = solve([(protocol, params, topology)])[0]
        assert list(solution.stationary.items()) == list(reference.stationary.items())
        assert solution.message_breakdown == reference.message_breakdown
        for expected, observed in zip(
            dense.stationary.values(), solution.stationary.values()
        ):
            assert math.isclose(expected, observed, rel_tol=1e-8, abs_tol=1e-12)
        assert math.isclose(
            dense.inconsistency_ratio,
            solution.inconsistency_ratio,
            rel_tol=1e-8,
            abs_tol=1e-12,
        )


def test_sparse_system_compiled_once_per_zero_mask(monkeypatch):
    # The strong components and the ordering are structural: two batches
    # on one template compute them once for each zero mask they meet.
    calls = {"pin": 0, "order": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        markov, "_closed_class_pin", counted("pin", markov._closed_class_pin)
    )
    monkeypatch.setattr(
        markov, "_fill_reducing_order", counted("order", markov._fill_reducing_order)
    )
    topology = Topology.star(6)
    template = TreeTemplate(Protocol.SS, topology)
    for loss in (0.01, 0.05):
        template.solve_batch(
            [params_for(topology, loss_rate=loss), params_for(topology, loss_rate=0.0)]
        )
    assert calls == {"pin": 2, "order": 2}
    assert len(template._systems) == 2
    # Every tree pins its start state: every update edge feeds it.
    assert all(system.pin == 0 for _, _, system in template._systems.values())


def test_solve_batch_rejects_hop_mismatch():
    template = tree_template(Protocol.SS, Topology.star(3))
    with pytest.raises(ValueError, match="must equal the topology's edge count"):
        template.solve_batch([reservation_defaults()])


def test_solve_batch_empty():
    assert tree_template(Protocol.SS, Topology.star(2)).solve_batch([]) == []


def test_solve_tree_tasks_preserves_task_order():
    star = Topology.star(2)
    chain = Topology.chain(2)
    params_star = params_for(star)
    params_chain = params_for(chain)
    tasks = [
        (Protocol.SS, params_star, star),
        (Protocol.HS, params_chain, chain),
        (Protocol.SS, params_chain, chain),
        (Protocol.HS, params_star, star),
    ]
    solutions = solve_tree_tasks(tasks)
    for (protocol, params, topology), solution in zip(tasks, solutions):
        assert solution.protocol is protocol
        assert solution.topology == topology
        assert solution.params == params


class TestRuntimeBatch:
    def test_batch_matches_reference_and_dedupes(self):
        topology = Topology.kary(2, 2)
        params = params_for(topology)
        tasks = [(p, params, topology) for p in MULTIHOP] * 2
        cache = global_cache()
        before = cache.stats()["misses"]
        solutions = solve_tree_batch(tasks)
        after = cache.stats()["misses"]
        # Repeated tasks are served from the dedupe pass, not recomputed.
        assert after - before <= len(MULTIHOP)
        for (protocol, task_params, task_topology), solution in zip(tasks, solutions):
            reference = TreeModel(protocol, task_params, task_topology).solve()
            assert reference.inconsistency_ratio == solution.inconsistency_ratio
            assert reference.message_rate == solution.message_rate

    def test_parallel_jobs_identical_to_serial(self):
        topology = Topology.skewed(3)
        variants = [
            (Protocol.SS, params_for(topology, loss_rate=rate), topology)
            for rate in (0.01, 0.05, 0.1, 0.15)
        ]
        serial = solve_tree_batch(variants)
        parallel = solve_tree_batch(variants, jobs=2)
        for a, b in zip(serial, parallel):
            assert a.inconsistency_ratio == b.inconsistency_ratio
            assert a.message_rate == b.message_rate

    def test_topology_distinguishes_cache_entries(self):
        # Same (protocol, params) on different shapes with equal edge
        # counts must not collide in the memo cache.
        star = Topology.star(3)
        chain = Topology.chain(3)
        params = params_for(star)
        star_solution = solve_tree_batch([(Protocol.SS, params, star)])[0]
        chain_solution = solve_tree_batch([(Protocol.SS, params, chain)])[0]
        assert star_solution.inconsistency_ratio != chain_solution.inconsistency_ratio
