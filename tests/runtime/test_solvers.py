"""Tests for the cache-aware batch solvers and experiment fan-out."""

from __future__ import annotations

import logging

import pytest

from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.experiments import run_experiments, run_scenario
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime import (
    failure_report,
    global_cache,
    solve_gilbert_singlehop_batch,
    solve_multihop_batch,
    solve_singlehop_batch,
)
from repro.runtime.solvers import FAMILIES, PARITY_CLASSES, solve_chain_stationary


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    yield
    global_cache().clear()


class TestSingleHopBatch:
    def test_matches_direct_solve(self):
        params = kazaa_defaults()
        tasks = [(protocol, params) for protocol in Protocol]
        solutions = solve_singlehop_batch(tasks)
        for (protocol, _), solution in zip(tasks, solutions):
            direct = SingleHopModel(protocol, params).solve()
            assert solution.protocol is protocol
            assert solution.inconsistency_ratio == direct.inconsistency_ratio
            assert solution.normalized_message_rate == direct.normalized_message_rate

    def test_duplicate_tasks_solved_once(self):
        params = kazaa_defaults()
        task = (Protocol.SS, params)
        solutions = solve_singlehop_batch([task, task, task])
        assert solutions[0] is solutions[1] is solutions[2]
        assert len(global_cache()) == 1

    def test_repeat_batch_served_from_cache(self):
        params = kazaa_defaults()
        tasks = [(Protocol.SS, params), (Protocol.HS, params)]
        first = solve_singlehop_batch(tasks)
        before = global_cache().stats()["misses"]
        second = solve_singlehop_batch(tasks)
        assert global_cache().stats()["misses"] == before
        assert all(a is b for a, b in zip(first, second))

    def test_content_equal_parameters_share_cache_entries(self):
        solve_singlehop_batch([(Protocol.SS, kazaa_defaults())])
        solve_singlehop_batch([(Protocol.SS, kazaa_defaults())])
        assert len(global_cache()) == 1

    def test_parallel_matches_serial(self):
        base = kazaa_defaults()
        tasks = [
            (protocol, base.replace(delay=delay))
            for protocol in (Protocol.SS, Protocol.HS)
            for delay in (0.01, 0.03, 0.05)
        ]
        serial = solve_singlehop_batch(tasks, jobs=1)
        global_cache().clear()
        parallel = solve_singlehop_batch(tasks, jobs=2)
        assert [s.inconsistency_ratio for s in serial] == [
            s.inconsistency_ratio for s in parallel
        ]
        assert [s.message_breakdown for s in serial] == [
            s.message_breakdown for s in parallel
        ]

    def test_solutions_pickle(self):
        import pickle

        tasks = [(protocol, kazaa_defaults()) for protocol in Protocol]
        solutions = solve_singlehop_batch(tasks)
        clones = pickle.loads(pickle.dumps(solutions))
        assert [c.protocol for c in clones] == list(Protocol)
        assert [c.inconsistency_ratio for c in clones] == [
            s.inconsistency_ratio for s in solutions
        ]


class TestInfiniteSessionRejected:
    """``removal_rate = 0`` has no single-hop answer on either path.

    The single-hop reference models raise for an infinite session; the
    templates must raise the same error rather than return numbers from
    a chain whose absorbing state is unreachable.
    """

    @pytest.mark.parametrize("templates", ["1", "0"], ids=["templates", "reference"])
    @pytest.mark.parametrize("loss", [0.0, 0.05, 0.2])
    @pytest.mark.parametrize(
        "family", ["singlehop", "gilbert-degenerate", "gilbert-bursty"]
    )
    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    def test_batch_raises(self, protocol, family, loss, templates, monkeypatch):
        monkeypatch.setenv("REPRO_TEMPLATES", templates)
        params = kazaa_defaults().replace(loss_rate=loss, removal_rate=0.0)
        if family == "singlehop":
            solve, task = solve_singlehop_batch, (protocol, params)
        else:
            burstiness = 1.0 if family == "gilbert-bursty" else 0.0
            channel = GilbertElliottParameters.matched_average(loss, burstiness)
            solve, task = solve_gilbert_singlehop_batch, (protocol, params, channel)
        with pytest.raises(ValueError, match="requires a finite session"):
            solve([task])


class TestMultiHopBatch:
    def test_matches_direct_solve(self):
        params = reservation_defaults()
        tasks = [(protocol, params) for protocol in Protocol.multihop_family()]
        solutions = solve_multihop_batch(tasks)
        assert [s.protocol for s in solutions] == list(Protocol.multihop_family())
        assert all(0.0 <= s.inconsistency_ratio <= 1.0 for s in solutions)


class TestHeterogeneousBatch:
    def test_matches_direct_solve_and_keys_on_hop_vector(self):
        from repro.core.multihop import Topology, TreeModel
        from repro.core.multihop.heterogeneous import HeterogeneousHop, hops_from_parameters
        from repro.runtime import solve_heterogeneous_batch

        params = reservation_defaults().replace(hops=5)
        uniform = hops_from_parameters(params)
        lossy = (HeterogeneousHop(0.2, 0.05),) + uniform[1:]
        tasks = [
            (Protocol.SS, params, uniform),
            (Protocol.SS, params, lossy),
            (Protocol.SS, params, uniform),  # duplicate of the first
        ]
        solutions = solve_heterogeneous_batch(tasks)
        direct = TreeModel(Protocol.SS, params, Topology.chain(5), uniform).solve()
        assert solutions[0].inconsistency_ratio == direct.inconsistency_ratio
        # Different hop vectors must not collide in the cache...
        assert solutions[1].inconsistency_ratio != solutions[0].inconsistency_ratio
        # ...while identical ones dedupe to a single solve.
        assert solutions[2] is solutions[0]
        assert len(global_cache()) == 2


class TestFamilyTable:
    def test_every_task_entry_point_is_served_by_exactly_one_route(self):
        served = [entry for family in FAMILIES.values() for entry in family.routes.values()]
        task_entry_points = [
            name
            for name in PARITY_CLASSES
            if name.startswith("solve_") and name.endswith("_tasks")
        ]
        assert task_entry_points
        for name in task_entry_points:
            assert served.count(name) == 1, name

    def test_every_route_names_a_registered_entry_point(self):
        from repro.core import templates

        for family in FAMILIES.values():
            for route, entry in family.routes.items():
                assert entry in PARITY_CLASSES, (family.tag, route)
                assert callable(getattr(templates, entry)), (family.tag, route)

    def test_routed_families_accept_exactly_the_core_backends(self):
        from repro.core.multihop.lumping import TREE_BACKENDS
        from repro.core.templates import CHAIN_BACKENDS

        assert ("auto", *FAMILIES["multihop"].routes) == CHAIN_BACKENDS
        assert ("auto", *FAMILIES["heterogeneous"].routes) == CHAIN_BACKENDS
        assert ("auto", *FAMILIES["tree"].routes) == TREE_BACKENDS


class TestRunExperiments:
    def test_serial_fanout_matches_run_scenario(self):
        direct = run_scenario("fig17", "fast")
        (fanned,) = run_experiments(["fig17"], fidelity="fast")
        assert fanned.to_text() == direct.to_text()

    def test_parallel_fanout_matches_serial(self):
        serial = run_experiments(["fig17", "table1"], fidelity="fast", jobs=1)
        parallel = run_experiments(["fig17", "table1"], fidelity="fast", jobs=2)
        assert [r.to_text() for r in serial] == [r.to_text() for r in parallel]


class TestTreeBackendRouting:
    def test_batch_routes_mixed_backends_in_input_order(self):
        from repro.core.multihop import LumpedTreeModel, Topology, TreeModel
        from repro.runtime import solve_tree_batch

        params = reservation_defaults()
        small = Topology.star(2)
        wide = Topology.star(8)
        tasks = [
            (Protocol.SS, params.replace(hops=wide.num_edges), wide),
            (Protocol.SS, params.replace(hops=small.num_edges), small),
        ]
        wide_solution, small_solution = solve_tree_batch(tasks)
        direct = TreeModel(Protocol.SS, tasks[1][1], small).solve()
        lumped = LumpedTreeModel(Protocol.SS, tasks[0][1], wide).solve()
        assert small_solution.inconsistency_ratio == pytest.approx(
            direct.inconsistency_ratio, rel=1e-12
        )
        assert wide_solution.inconsistency_ratio == pytest.approx(
            lumped.inconsistency_ratio, rel=1e-12
        )

    def test_invalid_backend_rejected(self):
        from repro.core.multihop import Topology
        from repro.runtime import solve_tree_batch

        topology = Topology.star(2)
        params = reservation_defaults().replace(hops=topology.num_edges)
        with pytest.raises(ValueError, match="tree backend"):
            solve_tree_batch([(Protocol.SS, params, topology, "magic")])


class _FakeChain:
    """Duck-typed stand-in for ContinuousTimeMarkovChain in fallback tests."""

    def __init__(self, solver, failing=("sparse",)):
        self.solver = solver
        self.states = ("a", "b")
        self._failing = failing

    def stationary_distribution(self):
        if self.solver in self._failing:
            raise ValueError(f"{self.solver} factorization is singular")
        return {"a": 0.5, "b": 0.5}

    def with_solver(self, solver):
        return _FakeChain(solver, self._failing)


class TestStationarySolverFallback:
    @pytest.fixture(autouse=True)
    def fresh_report(self):
        failure_report().reset()
        yield
        failure_report().reset()

    def test_sparse_failure_falls_back_to_dense(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.runtime.solvers"):
            result = solve_chain_stationary(_FakeChain("sparse"))
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1
        assert any("recomputing densely" in record.message for record in caplog.records)

    def test_successful_solve_is_not_counted(self):
        assert solve_chain_stationary(_FakeChain("sparse", failing=())) == {
            "a": 0.5,
            "b": 0.5,
        }
        assert failure_report().solver_fallbacks == 0

    def test_dense_failure_propagates(self):
        with pytest.raises(ValueError, match="dense factorization"):
            solve_chain_stationary(_FakeChain("dense", failing=("dense",)))
        assert failure_report().solver_fallbacks == 0

    def test_sparse_and_dense_failures_rescue_iteratively(self, caplog):
        # Sparse fails, dense also fails: the iterative backend is the
        # last rescue on the chain and still lands the solve.
        with caplog.at_level(logging.WARNING, logger="repro.runtime.solvers"):
            result = solve_chain_stationary(
                _FakeChain("sparse", failing=("sparse", "dense"))
            )
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1

    def test_fallback_failure_propagates_after_counting(self):
        # Every backend fails: the last rescue's error surfaces and the
        # attempted fallback is still on the record.
        with pytest.raises(ValueError, match="iterative factorization"):
            solve_chain_stationary(
                _FakeChain("sparse", failing=("sparse", "dense", "iterative"))
            )
        assert failure_report().solver_fallbacks == 1

    def test_iterative_chain_rescues_densely_without_self_retry(self):
        # An iterative-configured chain must not retry iteratively; the
        # dense rescue answers.
        result = solve_chain_stationary(
            _FakeChain("iterative", failing=("iterative",))
        )
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1
