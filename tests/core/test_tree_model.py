"""The tree (multicast) analytic model: states, rates, metrics, parity.

The paper's chain is the unary tree ``Topology.chain(N)``: its state
order and rate dict must be the paper's Fig. 15/16 construction with
``==``, built here the plain way, hop by hop.
"""

import pytest

from repro.core.multihop import (
    RECOVERY,
    Topology,
    TreeModel,
    build_tree_rates,
    first_timeout_rate,
    slow_path_recovery_rate,
    tree_expected_link_crossings,
    tree_state_space,
)
from repro.core.multihop.messages import expected_link_crossings
from repro.core.multihop.tree_states import MAX_TREE_STATES, TreeState, tree_space
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol

MULTIHOP = Protocol.multihop_family()


def params_for(topology: Topology, **overrides):
    return reservation_defaults().replace(hops=topology.num_edges, **overrides)


def hop_state(consistent_hops, slow):
    """The paper's ``(i, s)`` on a chain: hops ``1..i`` consistent, hop
    ``i+1`` waiting on the slow path when ``s``."""
    return TreeState(tuple(range(1, consistent_hops + 1)), (consistent_hops + 1,) if slow else ())


def paper_chain_rates(protocol, params):
    """The Fig. 15/16 rate dict built hop by hop from eqs. 9-11."""
    n, p, delay = params.hops, params.loss_rate, params.delay
    states = tree_state_space(Topology.chain(n), protocol is Protocol.HS)
    start = hop_state(0, False)
    rates: dict = {}

    def add(origin, destination, rate):
        if rate > 0.0:
            rates[(origin, destination)] = rates.get((origin, destination), 0.0) + rate

    for state in states[1:]:
        add(state, start, params.update_rate)
    for i in range(n):
        add(hop_state(i, False), hop_state(i + 1, False), (1.0 - p) / delay)
        add(hop_state(i, False), hop_state(i, True), p / delay)
        add(hop_state(i, True), hop_state(i + 1, False), slow_path_recovery_rate(protocol, params, i + 1))
    if protocol is Protocol.HS:
        for state in states[:-1]:
            add(state, RECOVERY, n * params.external_false_signal_rate)
        add(RECOVERY, start, 1.0 / (2.0 * n * delay))
    else:
        for state in states:
            for j in range(len(state.consistent)):
                add(state, hop_state(j, True), first_timeout_rate(params, j))
    return rates


class TestStateSpace:
    def test_chain_count_matches_chain_model(self):
        for hops in (1, 2, 5):
            topo = Topology.chain(hops)
            assert len(tree_state_space(topo, False)) == 2 * hops + 1
            assert len(tree_state_space(topo, True)) == 2 * hops + 2

    def test_chain_order_is_the_papers(self):
        # (0,0)..(N,0), then (0,1)..(N-1,1), then F.
        paper = [hop_state(i, False) for i in range(5)] + [hop_state(i, True) for i in range(4)]
        assert list(tree_state_space(Topology.chain(4), True)) == paper + [RECOVERY]

    def test_star_count_is_three_to_the_k(self):
        # Each leaf edge is independently fast, slow or crossed.
        for k in (1, 2, 3, 4):
            assert len(tree_state_space(Topology.star(k), False)) == 3**k

    def test_binary_depth_2_count(self):
        assert len(tree_state_space(Topology.kary(2, 2), False)) == 121

    def test_start_state_is_first_and_full_state_present(self):
        topo = Topology.kary(2, 2)
        states = tree_state_space(topo, False)
        assert states[0] == TreeState((), ())
        assert TreeState(tuple(range(1, 7)), ()) in states

    def test_downward_closure_and_frontier_slow_validity(self):
        topo = Topology.kary(2, 2)
        for state in tree_state_space(topo, False):
            members = {0, *state.consistent}
            for node in state.consistent:
                assert topo.parent(node) in members, state
            for node in state.slow:
                assert node not in state.consistent, state
                assert topo.parent(node) in members, state

    def test_state_count_cap(self):
        with pytest.raises(ValueError, match="exceeds"):
            tree_state_space(Topology.kary(2, 3), False)
        assert MAX_TREE_STATES < 15129

    def test_cap_error_is_structured(self):
        from repro.core.multihop import StateSpaceLimitError, projected_tree_states

        topo = Topology.kary(2, 3)
        with pytest.raises(StateSpaceLimitError) as excinfo:
            tree_state_space(topo, False)
        error = excinfo.value
        assert isinstance(error, ValueError)  # legacy callers keep working
        assert error.topology.parents == topo.parents
        assert error.projected == projected_tree_states(topo) == 15129
        assert error.limit == MAX_TREE_STATES

    def test_cap_check_runs_before_materialization(self):
        # star(60) projects 3^60 states; the multiplicative pre-check
        # must refuse instantly instead of enumerating.
        import time

        from repro.core.multihop import StateSpaceLimitError

        start = time.perf_counter()
        with pytest.raises(StateSpaceLimitError) as excinfo:
            tree_state_space(Topology.star(60), False)
        assert time.perf_counter() - start < 1.0
        assert excinfo.value.projected == 3**60

    def test_max_states_raises_the_cap(self):
        topo = Topology.star(8)  # 6561 raw states
        states = tree_state_space(topo, False, max_states=10_000)
        assert len(states) == 6561

    def test_states_built_apart_are_equal_and_hash_alike(self):
        import pickle

        enumerated = tree_state_space(Topology.chain(3), False)[2]
        for state in (TreeState((1, 2), ()), pickle.loads(pickle.dumps(enumerated))):
            assert state == enumerated and state is not enumerated
            assert hash(state) == hash(enumerated) == hash(((1, 2), ()))
            assert {enumerated: "found"}[state] == "found"

    @pytest.mark.parametrize(
        "topo", [Topology.chain(4), Topology.kary(2, 2), Topology.skewed(3)], ids=str
    )
    def test_record_counts_each_states_frontier(self, topo):
        space = tree_space(topo, True)
        assert space.states == tree_state_space(topo, True)
        assert space.states[space.recovery] is RECOVERY
        assert space.states[space.full] == TreeState(tuple(range(1, topo.num_nodes)), ())
        for state, fast, slow, mask in zip(
            space.states, space.fast, space.slow, space.consistent
        ):
            if state is RECOVERY:
                assert (fast, slow, mask) == (0, 0, 0)
                continue
            members = {0, *state.consistent}
            frontier = {
                node
                for node in range(1, topo.num_nodes)
                if node not in members and topo.parent(node) in members
            }
            assert (fast, slow) == (len(frontier - set(state.slow)), len(state.slow))
            assert mask == sum(1 << node for node in state.consistent)

    @pytest.mark.parametrize("topo", [Topology.star(3), Topology.broom(2, 3)], ids=str)
    def test_orbit_record_is_each_members_record(self, topo):
        from repro.core.multihop import lump_tree_state
        from repro.core.multihop.lumping import lumped_space

        raw, lumped = tree_space(topo, True), lumped_space(topo, True)
        orbits = {orbit: i for i, orbit in enumerate(lumped.states)}
        for state, fast, slow in zip(raw.states, raw.fast, raw.slow):
            i = orbits[lump_tree_state(topo, state)]
            assert (lumped.fast[i], lumped.slow[i]) == (fast, slow)
        assert orbits[lump_tree_state(topo, raw.states[raw.full])] == lumped.full
        assert lumped.states[lumped.recovery] is RECOVERY


class TestUnaryChainBitParity:
    @pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
    @pytest.mark.parametrize("hops", [1, 3, 7])
    @pytest.mark.parametrize("loss", [0.02, 0.0])
    def test_rates_bit_identical_to_chain(self, protocol, hops, loss):
        topo = Topology.chain(hops)
        params = params_for(topo, loss_rate=loss)
        assert build_tree_rates(protocol, params, topo) == paper_chain_rates(protocol, params)

    @pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"loss_rate": 0.2}, {"loss_rate": 0.0}, {"delay": 0.3}],
        ids=["base", "lossy", "lossless", "slow-links"],
    )
    def test_chain_metrics_agree(self, protocol, overrides):
        topo = Topology.chain(5)
        params = params_for(topo, **overrides)
        tree = TreeModel(protocol, params, topo).solve()
        assert tree.inconsistency_ratio == 1.0 - tree.stationary[hop_state(5, False)]
        assert tree.hop_profile() == [tree.node_inconsistency(hop) for hop in range(1, 6)]
        last = tree.node_inconsistency(5)
        assert last == pytest.approx(tree.inconsistency_ratio, rel=1e-12)
        assert last == tree.leaf_inconsistency(5)
        assert last == tree.mean_leaf_inconsistency
        assert last == tree.fanout_weighted_inconsistency
        assert tree.integrated_cost(10.0) == 10.0 * tree.inconsistency_ratio + tree.message_rate


class TestTreeMetrics:
    def test_stationary_sums_to_one(self):
        for topo in (Topology.star(3), Topology.kary(2, 2), Topology.skewed(3)):
            for protocol in MULTIHOP:
                solution = TreeModel(protocol, params_for(topo), topo).solve()
                assert sum(solution.stationary.values()) == pytest.approx(1.0)
                assert 0.0 <= solution.inconsistency_ratio <= 1.0

    def test_star_leaves_are_symmetric(self):
        topo = Topology.star(4)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        profile = solution.leaf_profile()
        assert len(profile) == 4
        for value in profile[1:]:
            assert value == pytest.approx(profile[0], rel=1e-12)

    def test_any_leaf_dominates_mean_leaf(self):
        topo = Topology.star(5)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        assert solution.inconsistency_ratio > solution.mean_leaf_inconsistency
        assert solution.reach_profile() == [
            1.0 - value for value in solution.leaf_profile()
        ]

    def test_fanout_widening_grows_any_leaf_inconsistency(self):
        values = []
        for k in (1, 2, 4):
            topo = Topology.star(k)
            values.append(
                TreeModel(Protocol.SS, params_for(topo), topo).solve().inconsistency_ratio
            )
        assert values[0] < values[1] < values[2]

    def test_deeper_leaves_are_more_inconsistent(self):
        topo = Topology.skewed(3)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        # Leaf 2 sits at depth 2, leaves 4/5 at depth 3.
        assert solution.leaf_inconsistency(2) < solution.leaf_inconsistency(5)

    def test_fanout_weighting_emphasizes_wide_splitters(self):
        # Root fans out to one shallow leaf and one deep 3-way splitter:
        # the weighted metric must exceed the uniform mean.
        topo = Topology((0, 0, 2, 2, 2))
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        assert (
            solution.fanout_weighted_inconsistency
            > solution.mean_leaf_inconsistency
        )

    def test_node_inconsistency_monotone_along_paths(self):
        topo = Topology.kary(2, 2)
        solution = TreeModel(Protocol.SS_RT, params_for(topo), topo).solve()
        # A child can only be consistent when its parent is.
        assert solution.node_inconsistency(1) <= solution.node_inconsistency(3)

    def test_hs_recovery_state_present(self):
        topo = Topology.star(2)
        solution = TreeModel(Protocol.HS, params_for(topo), topo).solve()
        assert RECOVERY in solution.stationary
        assert solution.stationary[RECOVERY] > 0.0


class TestLinkCrossings:
    def test_chain_uses_closed_form(self):
        topo = Topology.chain(6)
        params = params_for(topo)
        assert tree_expected_link_crossings(topo, params) == expected_link_crossings(
            params
        )

    def test_general_tree_sums_reach_probabilities(self):
        topo = Topology.kary(2, 2)
        params = params_for(topo, loss_rate=0.1)
        expected = 2 * 1.0 + 4 * 0.9  # two root edges + four depth-2 edges
        assert tree_expected_link_crossings(topo, params) == pytest.approx(expected)

    def test_lossless_counts_every_edge(self):
        topo = Topology.skewed(3)
        params = params_for(topo, loss_rate=0.0)
        assert tree_expected_link_crossings(topo, params) == pytest.approx(
            topo.num_edges
        )


class TestErrors:
    def test_hops_mismatch_rejected(self):
        topo = Topology.star(3)
        with pytest.raises(ValueError, match="edge"):
            TreeModel(Protocol.SS, reservation_defaults(), topo)

    def test_non_multihop_protocol_rejected(self):
        topo = Topology.star(2)
        with pytest.raises(ValueError, match="not modeled"):
            TreeModel(Protocol.SS_ER, params_for(topo), topo)

    def test_leaf_metric_rejects_internal_node(self):
        topo = Topology.kary(2, 2)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        with pytest.raises(ValueError, match="not a leaf"):
            solution.leaf_inconsistency(1)

    def test_node_metric_bounds(self):
        topo = Topology.star(2)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        with pytest.raises(ValueError):
            solution.node_inconsistency(0)
        with pytest.raises(ValueError):
            solution.node_inconsistency(3)

    def test_negative_cost_weight_rejected(self):
        topo = Topology.star(2)
        solution = TreeModel(Protocol.SS, params_for(topo), topo).solve()
        with pytest.raises(ValueError):
            solution.integrated_cost(-1.0)
