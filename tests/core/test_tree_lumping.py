"""Exact subtree lumping: orbit counts, backend routing, parity proofs.

The load-bearing assertions come in two strengths.  Over *exact
rational arithmetic* the strong-lumpability theorem is an identity, so
solving both generators with :class:`fractions.Fraction` Gaussian
elimination must reproduce ``sum(pi[x] for x in orbit) == pi_hat[orbit]``
with ``==`` — any discrepancy is a wiring bug in the orbit projection
or the multiplicity bookkeeping, not roundoff.  Float solves of the
lumped and direct chains accumulate in different orders, so those
compare under tight tolerances; the lumped *template*, which scatters
the identical ``tree_tag_rates`` float times multiplicity as the lumped
model, stays bit-identical to it.
"""

import math
from fractions import Fraction

import pytest

from repro.core.multihop import (
    LumpedTreeModel,
    StateSpaceLimitError,
    Topology,
    TreeModel,
    lump_tree_state,
    lumped_state_space,
    projected_lumped_states,
    projected_tree_states,
    select_tree_backend,
    tree_state_space,
)
from repro.core.multihop import lumping as _lumping
from repro.core.multihop.lumping import MAX_LUMPED_TREE_STATES
from repro.core.multihop.tree_transitions import tree_tag_rates
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    MAX_TREE_STATES,
)
from repro.core.parameters import reservation_defaults
from repro.core.protocols import Protocol
from repro.core.templates import LumpedTreeTemplate

MULTIHOP = Protocol.multihop_family()


def params_for(topology: Topology, **overrides):
    return reservation_defaults().replace(hops=topology.num_edges, **overrides)


class TestOrbitCounts:
    def test_star_orbits_are_triangular(self):
        # k exchangeable leaves with 3 per-edge configs: C(k+2, 2).
        for k in (1, 2, 3, 5, 8, 16, 64):
            topo = Topology.star(k)
            expected = math.comb(k + 2, 2)
            assert projected_lumped_states(topo) == expected
            if expected <= 4000:
                assert len(lumped_state_space(topo, False)) == expected
                assert len(lumped_state_space(topo, True)) == expected + 1

    def test_binary_depth_three_breaks_the_wall(self):
        topo = Topology.kary(2, 3)
        assert projected_tree_states(topo) == 15129
        assert projected_lumped_states(topo) == 741
        assert len(lumped_state_space(topo, False)) == 741

    def test_ternary_depth_two(self):
        topo = Topology.kary(3, 2)
        assert projected_tree_states(topo) == 24389
        assert projected_lumped_states(topo) == 364

    def test_chain_does_not_lump(self):
        # Unary nodes have singleton sibling groups: nothing merges.
        for hops in (1, 3, 5):
            topo = Topology.chain(hops)
            assert projected_lumped_states(topo) == projected_tree_states(topo)

    def test_projection_matches_enumeration(self):
        for topo in (
            Topology.star(4),
            Topology.broom(2, 3),
            Topology.kary(2, 2),
            Topology.skewed(3),
        ):
            assert projected_lumped_states(topo) == len(
                lumped_state_space(topo, False)
            )

    def test_lumped_enumeration_respects_cap(self):
        topo = Topology.kary(3, 3)  # ~8.2M orbits
        assert projected_lumped_states(topo) > MAX_LUMPED_TREE_STATES
        with pytest.raises(StateSpaceLimitError, match="exceeds") as excinfo:
            lumped_state_space(topo, False)
        assert excinfo.value.topology.parents == topo.parents
        assert excinfo.value.projected == projected_lumped_states(topo)
        assert excinfo.value.limit == MAX_LUMPED_TREE_STATES


class TestBackendSelection:
    def test_small_topologies_stay_direct(self):
        for topo in (Topology.chain(3), Topology.star(2), Topology.kary(2, 2)):
            assert projected_tree_states(topo) <= MAX_TREE_STATES
            assert select_tree_backend(topo) == "direct"

    def test_lumpable_topologies_route_lumped(self):
        for topo in (Topology.star(8), Topology.kary(2, 3), Topology.kary(3, 2)):
            assert projected_tree_states(topo) > MAX_TREE_STATES
            assert select_tree_backend(topo) == "lumped"

    def test_unlumpable_topologies_route_iterative(self):
        topo = Topology.skewed(8)  # 8747 raw, 6560 orbits: barely lumps
        assert select_tree_backend(topo) == "iterative"

    def test_oversized_topologies_raise_structured_error(self):
        topo = Topology.kary(3, 3)
        with pytest.raises(StateSpaceLimitError, match="exceeds") as excinfo:
            select_tree_backend(topo)
        assert excinfo.value.projected == projected_tree_states(topo)
        assert excinfo.value.limit == MAX_ENUMERATED_TREE_STATES


def _exact_stationary(rates, states):
    """Stationary distribution by Fraction Gaussian elimination.

    Solves ``pi Q = 0`` with the last balance equation replaced by the
    normalization constraint; every float rate enters as its exact
    binary rational, so the result is the exact stationary vector of
    the float-specified generator.
    """
    index = {state: i for i, state in enumerate(states)}
    n = len(states)
    zero = Fraction(0)
    # a[i][j] holds column j of Q^T row i; the last row is all-ones.
    a = [[zero] * n for _ in range(n)]
    for (origin, destination), rate in rates.items():
        q = Fraction(rate)
        i, j = index[origin], index[destination]
        a[j][i] += q
        a[i][i] -= q
    a[n - 1] = [Fraction(1)] * n
    b = [zero] * (n - 1) + [Fraction(1)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for row in range(col + 1, n):
            if a[row][col] == 0:
                continue
            factor = a[row][col] / a[col][col]
            b[row] -= factor * b[col]
            for k in range(col, n):
                a[row][k] -= factor * a[col][k]
    pi = [zero] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for k in range(row + 1, n):
            acc -= a[row][k] * pi[k]
        pi[row] = acc / a[row][row]
    return {state: pi[i] for state, i in index.items()}


def _exact_tree_rates(protocol, params, topology):
    """The raw tree generator with every tag rate an exact rational."""
    from repro.core.multihop import tree_transition_specs

    rates = {}
    for origin, destination, tag in tree_transition_specs(protocol, topology):
        if origin == destination:
            continue
        rate = Fraction(tree_tag_rates(protocol, params, topology, [tag])[0])
        if rate > 0:
            key = (origin, destination)
            rates[key] = rates.get(key, Fraction(0)) + rate
    return rates


def _exact_lumped_rates(protocol, params, topology):
    """The lumped generator with exact ``Fraction(rate) * multiplicity``.

    ``build_lumped_rates`` stores the rounded float product; here the
    integer multiplicity scales the exact rational of the tag rate, so
    the lumped generator aggregates the raw generator *exactly* and the
    strong-lumpability identity holds with ``==``.
    """
    rates = {}
    for origin, destination, tag, mult in _lumping.lumped_transition_specs(
        protocol, topology
    ):
        if origin == destination:
            continue
        rate = Fraction(tree_tag_rates(protocol, params, topology, [tag])[0]) * mult
        if rate > 0:
            key = (origin, destination)
            rates[key] = rates.get(key, Fraction(0)) + rate
    return rates


EXACT_SHAPES = (Topology.star(3), Topology.broom(1, 2), Topology.skewed(2))


class TestExactRationalLumping:
    @pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "topology", EXACT_SHAPES, ids=lambda t: str(t.parents)
    )
    def test_orbit_masses_are_bit_identical_over_rationals(
        self, protocol, topology
    ):
        params = params_for(topology)
        raw_pi = _exact_stationary(
            _exact_tree_rates(protocol, params, topology),
            tree_state_space(topology, protocol is Protocol.HS),
        )
        lumped_pi = _exact_stationary(
            _exact_lumped_rates(protocol, params, topology),
            lumped_state_space(topology, protocol is Protocol.HS),
        )
        aggregated = {}
        for state, mass in raw_pi.items():
            orbit = lump_tree_state(topology, state)
            aggregated[orbit] = aggregated.get(orbit, Fraction(0)) + mass
        assert set(aggregated) == set(lumped_pi)
        for orbit, mass in lumped_pi.items():
            assert aggregated[orbit] == mass  # exact: Fraction == Fraction


FLOAT_SHAPES = (
    Topology.star(5),
    Topology.broom(2, 3),
    Topology.kary(2, 2),
    Topology.skewed(4),
    Topology.chain(3),
)


class TestFloatParity:
    @pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
    @pytest.mark.parametrize(
        "topology", FLOAT_SHAPES, ids=lambda t: str(t.parents)
    )
    def test_lumped_matches_direct_below_cap(self, protocol, topology):
        params = params_for(topology)
        direct = TreeModel(protocol, params, topology).solve()
        lumped = LumpedTreeModel(protocol, params, topology).solve()
        rel = 1e-9
        assert lumped.inconsistency_ratio == pytest.approx(
            direct.inconsistency_ratio, rel=rel, abs=1e-12
        )
        assert lumped.message_rate == pytest.approx(direct.message_rate, rel=rel)
        assert lumped.mean_leaf_inconsistency == pytest.approx(
            direct.mean_leaf_inconsistency, rel=rel, abs=1e-12
        )
        assert lumped.fanout_weighted_inconsistency == pytest.approx(
            direct.fanout_weighted_inconsistency, rel=rel, abs=1e-12
        )
        for node in range(1, topology.num_nodes):
            assert lumped.node_inconsistency(node) == pytest.approx(
                direct.node_inconsistency(node), rel=rel, abs=1e-12
            )

    @pytest.mark.parametrize(
        "topology", FLOAT_SHAPES[:3], ids=lambda t: str(t.parents)
    )
    def test_orbit_masses_match_aggregated_direct(self, topology):
        params = params_for(topology)
        direct = TreeModel(Protocol.SS, params, topology).solve()
        lumped = LumpedTreeModel(Protocol.SS, params, topology).solve()
        aggregated = {}
        for state, mass in direct.stationary.items():
            orbit = lump_tree_state(topology, state)
            aggregated[orbit] = aggregated.get(orbit, 0.0) + mass
        assert set(aggregated) == set(lumped.stationary)
        for orbit, mass in lumped.stationary.items():
            assert aggregated[orbit] == pytest.approx(mass, rel=1e-9, abs=1e-13)


class TestTemplateBitParity:
    @pytest.mark.parametrize("protocol", MULTIHOP, ids=lambda p: p.value)
    def test_lumped_template_is_bit_identical_to_lumped_model(self, protocol):
        topology = Topology.broom(2, 2)
        points = [
            params_for(topology),
            params_for(topology, loss_rate=0.17),
            params_for(topology, refresh_interval=2.5),
        ]
        template = LumpedTreeTemplate(protocol, topology)
        batched = template.solve_batch(points)
        for params, fast in zip(points, batched):
            reference = LumpedTreeModel(protocol, params, topology).solve()
            assert fast.stationary == reference.stationary
            assert fast.inconsistency_ratio == reference.inconsistency_ratio
            assert fast.message_rate == reference.message_rate
            assert (
                fast.mean_leaf_inconsistency == reference.mean_leaf_inconsistency
            )


class TestIterativeAboveCap:
    def test_iterative_agrees_with_lumped_exact_above_the_old_cap(self):
        topology = Topology.star(8)  # 6561 raw states: over MAX_TREE_STATES
        assert projected_tree_states(topology) > MAX_TREE_STATES
        params = params_for(topology)
        lumped = LumpedTreeModel(Protocol.SS, params, topology).solve()
        iterative = TreeModel(
            Protocol.SS,
            params,
            topology,
            max_states=MAX_ENUMERATED_TREE_STATES,
            solver="iterative",
        ).solve()
        assert iterative.inconsistency_ratio == pytest.approx(
            lumped.inconsistency_ratio, rel=1e-8
        )
        assert iterative.message_rate == pytest.approx(
            lumped.message_rate, rel=1e-8
        )
        assert iterative.mean_leaf_inconsistency == pytest.approx(
            lumped.mean_leaf_inconsistency, rel=1e-8
        )


_hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _random_trees(max_raw_states):
    """Random star/k-ary/broom topologies with at most ``max_raw_states``."""
    shapes = st.one_of(
        st.integers(1, 7).map(Topology.star),
        st.tuples(st.integers(2, 3), st.integers(1, 2)).map(
            lambda bd: Topology.kary(*bd)
        ),
        st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
            lambda hf: Topology.broom(*hf)
        ),
    )
    return shapes.filter(lambda t: projected_tree_states(t) <= max_raw_states)


class TestLumpingProperties:
    @settings(max_examples=8, deadline=None)
    @given(
        topology=_random_trees(130),
        protocol=st.sampled_from(MULTIHOP),
    )
    def test_random_trees_lump_bit_identically_over_rationals(
        self, topology, protocol
    ):
        # The == form of the lumpability identity: exact rational solves
        # of the float-specified generators agree orbit by orbit.
        params = params_for(topology)
        raw_pi = _exact_stationary(
            _exact_tree_rates(protocol, params, topology),
            tree_state_space(topology, protocol is Protocol.HS),
        )
        lumped_pi = _exact_stationary(
            _exact_lumped_rates(protocol, params, topology),
            lumped_state_space(topology, protocol is Protocol.HS),
        )
        aggregated = {}
        for state, mass in raw_pi.items():
            orbit = lump_tree_state(topology, state)
            aggregated[orbit] = aggregated.get(orbit, Fraction(0)) + mass
        assert aggregated == lumped_pi  # exact Fraction equality

    @settings(max_examples=10, deadline=None)
    @given(
        topology=_random_trees(MAX_TREE_STATES),
        protocol=st.sampled_from(MULTIHOP),
        loss_rate=st.floats(0.01, 0.4),
    )
    def test_random_trees_below_the_old_cap_match_direct(
        self, topology, protocol, loss_rate
    ):
        params = params_for(topology, loss_rate=loss_rate)
        direct = TreeModel(protocol, params, topology).solve()
        lumped = LumpedTreeModel(protocol, params, topology).solve()
        assert lumped.inconsistency_ratio == pytest.approx(
            direct.inconsistency_ratio, rel=1e-9, abs=1e-12
        )
        assert lumped.message_rate == pytest.approx(
            direct.message_rate, rel=1e-9
        )
        assert lumped.mean_leaf_inconsistency == pytest.approx(
            direct.mean_leaf_inconsistency, rel=1e-9, abs=1e-12
        )


class TestLumpedStateProjection:
    def test_full_and_slow_states_project_to_canonical_orbits(self):
        topology = Topology.star(3)
        raw = tree_state_space(topology, False)
        orbits = {lump_tree_state(topology, state) for state in raw}
        assert len(orbits) == projected_lumped_states(topology)

    def test_recovery_projects_to_itself(self):
        from repro.core.multihop import RECOVERY

        assert lump_tree_state(Topology.star(2), RECOVERY) is RECOVERY
