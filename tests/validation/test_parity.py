"""Tests for the backend parity matrix generated from ``FAMILIES``."""

from __future__ import annotations

import functools

import pytest

from repro.core.markov import SPARSE_STATE_THRESHOLD
from repro.core.multihop.lumping import select_tree_backend
from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.runtime.solvers import FAMILIES
from repro.validation.parity import (
    BACKENDS,
    PARITY_CLASSES,
    REDUCTIONS,
    SPARSE_ABS_TOL,
    SPARSE_REL_TOL,
    STRUCTURED_CROSSOVER_HOPS,
    parity_parameter_points,
    parity_points,
    parity_slice,
)

TAGS = tuple(FAMILIES)
SINGLE_HOP = ("singlehop", "gilbert-singlehop")
HOP_COUNTS = (4, 5)


def _base(tag):
    return kazaa_defaults() if tag in SINGLE_HOP else reservation_defaults().replace(hops=4)


def _protocols(tag):
    return tuple(Protocol) if tag in SINGLE_HOP else Protocol.multihop_family()


@functools.lru_cache(maxsize=None)
def _slice(tag, fidelity="smoke", protocols=None):
    return tuple(
        parity_slice(tag, _base(tag), protocols or _protocols(tag), HOP_COUNTS, fidelity)
    )


def _named(tag, relation, **kwargs):
    return [check for check in _slice(tag, **kwargs) if check.name.endswith(f": {relation}")]


class TestParameterPoints:
    def test_fidelity_grows_the_grid(self):
        base = kazaa_defaults()
        smoke = parity_parameter_points(base, "smoke")
        fast = parity_parameter_points(base, "fast")
        full = parity_parameter_points(base, "full")
        assert len(smoke) == 1
        assert len(smoke) < len(fast) < len(full)

    def test_labels_unique(self):
        labels = [label for label, _ in parity_parameter_points(kazaa_defaults(), "full")]
        assert len(labels) == len(set(labels))

    def test_points_validate_against_preset(self):
        # Every generated point must be a legal parameterization.
        for _, params in parity_parameter_points(reservation_defaults(), "full"):
            assert 0.0 <= params.loss_rate < 1.0


class TestPlanPoints:
    @pytest.mark.parametrize("tag", TAGS)
    def test_each_fidelity_grows_the_axis(self, tag):
        smoke, fast, full = (
            parity_points(tag, _base(tag), HOP_COUNTS, fidelity)
            for fidelity in ("smoke", "fast", "full")
        )
        if tag == "heterogeneous":
            # Two hop profiles at every hop count, whatever the fidelity.
            assert len(smoke) == len(fast) == len(full) == 2 * (len(HOP_COUNTS) + 1)
        else:
            assert {label for label, _ in smoke} < {label for label, _ in fast}
            assert {label for label, _ in fast} < {label for label, _ in full}

    @pytest.mark.parametrize("tag", TAGS)
    def test_labels_unique(self, tag):
        labels = [label for label, _ in parity_points(tag, _base(tag), HOP_COUNTS, "full")]
        assert len(labels) == len(set(labels))

    @pytest.mark.parametrize("tag", ["multihop", "heterogeneous", "gilbert-multihop"])
    def test_hop_labels_present(self, tag):
        labels = [label for label, _ in parity_points(tag, _base(tag), HOP_COUNTS)]
        for hops in HOP_COUNTS:
            assert any(label.startswith(f"N={hops} ") for label in labels)
        crossover = any(label.startswith(f"N={STRUCTURED_CROSSOVER_HOPS} ") for label in labels)
        assert crossover == (tag != "gilbert-multihop")

    def test_tree_axis_spans_unary_and_above_cap_shapes(self):
        shapes = {inputs[1] for _, inputs in parity_points("tree", _base("tree"))}
        assert any(topology.is_chain for topology in shapes)
        assert any(select_tree_backend(topology) != "direct" for topology in shapes)
        assert any(select_tree_backend(topology) == "direct" for topology in shapes)

    @pytest.mark.parametrize("tag", ["gilbert-singlehop", "gilbert-multihop"])
    def test_channels_hold_the_average_loss(self, tag):
        base = _base(tag)
        points = parity_points(tag, base, HOP_COUNTS)
        channels = {label.split()[-1]: inputs[1] for label, inputs in points}
        assert channels["degenerate"].is_degenerate
        assert not channels["bursty"].is_degenerate
        for _, (params, gilbert) in parity_points(tag, base, HOP_COUNTS, "full"):
            assert gilbert.average_loss == pytest.approx(params.loss_rate)


class TestSmokeSlice:
    @pytest.mark.parametrize("tag", TAGS)
    def test_slice_passes(self, tag):
        checks = _slice(tag)
        assert checks, "empty parity slice"
        for check in checks:
            assert check.passed, (check.name, check.failures()[:3])
            assert check.kind == "parity"
            assert check.points

    @pytest.mark.parametrize("tag", TAGS)
    def test_exact_points_are_bitwise(self, tag):
        for check in _slice(tag):
            if "==referee" in check.name:
                assert all(point.tolerance == 0.0 for point in check.points), check.name
            for point in check.points:
                if point.tolerance == 0.0:
                    assert point.expected == point.observed, (check.name, point.label)
                else:
                    bound = SPARSE_ABS_TOL + SPARSE_REL_TOL * abs(point.expected)
                    assert point.tolerance == bound, (check.name, point.label)

    @pytest.mark.parametrize(
        "tag,route", [(tag, route) for tag, family in FAMILIES.items() for route in family.routes]
    )
    def test_every_route_has_a_row(self, tag, route):
        family = FAMILIES[tag]
        own = list(family.reference_chains)[1:]
        exact = route in own or PARITY_CLASSES[family.routes[route]] == "exact"
        relation = f"{route}{'==' if exact else '~'}referee"
        checks = _named(tag, relation)
        assert [c.name.split(":")[0] for c in checks] == [
            f"{tag} {protocol.value}" for protocol in _protocols(tag)
        ]
        assert all(check.points for check in checks)

    @pytest.mark.parametrize("tag", TAGS)
    def test_dense_sparse_row_skips_sparse_referees(self, tag):
        checks = _named(tag, "dense~sparse")
        assert checks
        for check in checks:
            states = [p for p in check.points if "pi[" in p.label]
            assert states and len(states) == len(check.points)
            assert not any(f"N={STRUCTURED_CROSSOVER_HOPS} " in p.label for p in check.points)


class TestRelations:
    def test_own_referees_against_direct(self):
        assert list(FAMILIES["tree"].reference_chains) == ["direct", "lumped", "iterative"]
        for route in ("lumped", "iterative"):
            for check in _named("tree", f"{route}~direct"):
                assert check.passed and check.points
                # Only shapes below the direct cap have a direct referee.
                assert not any(p.label.startswith("star8 ") for p in check.points)

    def test_lumped_route_reaches_above_the_cap(self):
        for check in _named("tree", "lumped==referee"):
            assert any(p.label.startswith("star8 ") for p in check.points)

    def test_structured_is_the_only_tolerance_route(self):
        tolerant = {
            check.name.split(": ")[1]
            for tag in TAGS
            for check in _slice(tag)
            if check.name.endswith("~referee")
        }
        assert tolerant == {"structured~referee"}

    def test_unary_points_are_bitwise(self):
        # The chain is the unary tree: its shapes are direct tree points,
        # with no reduction against a separate chain model.
        assert not _named("tree", "unary==chain")
        for check in _named("tree", "direct==referee"):
            unary = [p for p in check.points if p.label.startswith(("chain3 ", "chain8 "))]
            assert any(p.label == "chain8 base mean_leaf_inconsistency" for p in unary)
            for point in unary:
                assert point.tolerance == 0.0
                assert point.expected == point.observed

    @pytest.mark.parametrize("tag", ["gilbert-singlehop", "gilbert-multihop"])
    def test_degenerate_metric_points_are_bitwise(self, tag):
        for check in _named(tag, "degenerate==iid"):
            metrics = [p for p in check.points if "hop_inconsistency" not in p.label]
            assert metrics
            for point in metrics:
                assert point.tolerance == 0.0
                assert point.expected == point.observed

    def test_uniform_heterogeneous_reproduces_homogeneous(self):
        for check in _named("heterogeneous", "uniform~homogeneous"):
            assert check.passed
            labels = {point.label for point in check.points}
            assert f"N={STRUCTURED_CROSSOVER_HOPS} uniform message_rate" in labels
            assert not any("congested" in label for label in labels)
            assert all(point.tolerance > 0.0 for point in check.points)

    def test_crossover_chain_compared_state_by_state(self):
        for tag in ("multihop", "heterogeneous"):
            for check in _named(tag, "template==referee"):
                states = [
                    p for p in check.points
                    if p.label.startswith(f"N={STRUCTURED_CROSSOVER_HOPS} ") and "pi[" in p.label
                ]
                assert len(states) >= SPARSE_STATE_THRESHOLD

    def test_lumped_iterative_runs_from_fast(self):
        assert not _named("tree", "lumped~iterative")
        (check,) = _named("tree", "lumped~iterative", fidelity="fast", protocols=(Protocol.SS,))
        assert check.passed
        assert {point.label.split()[0] for point in check.points} == {"star8"}

    def test_every_reduction_is_emitted(self):
        for reduction in REDUCTIONS:
            fidelity = reduction.fidelities[0]
            protocols = (Protocol.SS,) if fidelity != "smoke" else None
            assert _named(reduction.tag, reduction.name, fidelity=fidelity, protocols=protocols)

    def test_fast_fidelity_covers_lossy_variants(self):
        labels = {
            p.label for c in _slice("singlehop", "fast", (Protocol.SS,)) for p in c.points
        }
        assert any("loss=0.2" in label for label in labels)


class TestBackendListing:
    def test_matrix_names_all_seven_paths(self):
        assert BACKENDS == (
            "dense",
            "template",
            "batched",
            "sparse",
            "structured",
            "lumped",
            "iterative",
        )
