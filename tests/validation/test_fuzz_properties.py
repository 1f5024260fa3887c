"""Property-based fuzzing of the public API's model invariants.

Random valid parameter presets/overrides are generated by the Hypothesis
strategies below and pushed through :mod:`repro.api`; every generated
point must uphold the model's structural invariants — these are
properties of the *mathematics*, so any counterexample is a solver bug,
not a bad input.

The strategies generate *valid* parameter overrides — dictionaries that
:func:`repro.experiments.spec.apply_overrides` accepts against the
paper's presets — so the properties explore the model's legal input
space rather than its validation errors, plus raw series and results
for artifact round-trip fuzzing.  The ranges are deliberately wider than
the paper's operating points (loss up to 50%, timers from tens of
milliseconds to minutes) but stay inside the regime where the chains
remain well-conditioned, so every generated point must solve cleanly.
"""

from __future__ import annotations

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import repro.api as api  # noqa: E402
from repro.core.parameters import kazaa_defaults, reservation_defaults  # noqa: E402
from repro.core.multihop.heterogeneous import (  # noqa: E402
    hops_from_parameters,
    reach_profile,
)
from repro.core.protocols import Protocol  # noqa: E402
from repro.experiments.runner import ExperimentResult, Panel, Series  # noqa: E402
from repro.experiments.spec import ScenarioError, apply_overrides  # noqa: E402

_MULTIHOP_FIELDS = {field.name for field in dataclasses.fields(reservation_defaults())}

# The solve-backed properties run fewer examples than pure-data ones:
# each example is a full CTMC solve.
SOLVES = settings(max_examples=25, deadline=None)
DATA = settings(max_examples=100, deadline=None)


# -- strategies ---------------------------------------------------------


def _rate(low: float, high: float) -> st.SearchStrategy[float]:
    return st.floats(
        min_value=low, max_value=high, allow_nan=False, allow_infinity=False
    )


def protocols() -> st.SearchStrategy[Protocol]:
    """Any of the five protocol variants."""
    return st.sampled_from(list(Protocol))


def singlehop_overrides() -> st.SearchStrategy[dict[str, float]]:
    """Valid field overrides for the single-hop (Kazaa) preset."""
    return st.fixed_dictionaries(
        {},
        optional={
            "loss_rate": _rate(0.0, 0.5),
            "delay": _rate(1e-3, 0.5),
            "update_rate": _rate(1e-4, 1.0),
            "removal_rate": _rate(1e-5, 0.05),
            "refresh_interval": _rate(0.5, 60.0),
            "timeout_interval": _rate(1.0, 300.0),
            "retransmission_interval": _rate(0.02, 2.0),
            "external_false_signal_rate": _rate(0.0, 1e-2),
        },
    )


def multihop_overrides(max_hops: int = 10) -> st.SearchStrategy[dict[str, float]]:
    """Valid field overrides for the multi-hop (reservation) preset.

    ``max_hops`` bounds the chain size so each fuzzed point solves in
    milliseconds (states grow linearly with hops).
    """
    return st.fixed_dictionaries(
        {},
        optional={
            "hops": st.integers(min_value=1, max_value=max_hops),
            "loss_rate": _rate(0.0, 0.5),
            "delay": _rate(1e-3, 0.5),
            "update_rate": _rate(1e-3, 1.0),
            "refresh_interval": _rate(0.5, 60.0),
            "timeout_interval": _rate(1.0, 300.0),
            "retransmission_interval": _rate(0.02, 2.0),
        },
    )


def _finite_floats() -> st.SearchStrategy[float]:
    return st.floats(allow_nan=False, allow_infinity=False, width=64)


def series(max_points: int = 6) -> st.SearchStrategy[Series]:
    """Arbitrary finite-valued series (for artifact round-trip fuzzing)."""

    def build(label: str, xs: list[float], ys: list[float], with_err: bool):
        n = min(len(xs), len(ys))
        y_err = tuple(abs(y) for y in ys[:n]) if with_err else None
        return Series(label, tuple(xs[:n]), tuple(ys[:n]), y_err)

    return st.builds(
        build,
        label=st.text(min_size=1, max_size=12),
        xs=st.lists(_finite_floats(), min_size=1, max_size=max_points),
        ys=st.lists(_finite_floats(), min_size=1, max_size=max_points),
        with_err=st.booleans(),
    )


def experiment_results(max_series: int = 3) -> st.SearchStrategy[ExperimentResult]:
    """Arbitrary one-panel results whose JSON artifact must round-trip."""

    def build(name: str, all_series: list[Series]) -> ExperimentResult:
        panel = Panel(
            name=name or "p",
            x_label="x",
            y_label="y",
            series=tuple(all_series),
            shared_x=False,
        )
        return ExperimentResult("fuzz", "fuzzed result", (panel,))

    return st.builds(
        build,
        name=st.text(max_size=12),
        all_series=st.lists(series(), min_size=1, max_size=max_series),
    )


# -- properties ---------------------------------------------------------


class TestSingleHopInvariants:
    @SOLVES
    @given(protocol=protocols(), overrides=singlehop_overrides())
    def test_stationary_distribution_sums_to_one(self, protocol, overrides):
        solution = api.solve_singlehop(protocol, **overrides)
        total = sum(solution.stationary.values())
        assert total == pytest.approx(1.0, abs=1e-9)
        assert all(p >= 0.0 for p in solution.stationary.values())

    @SOLVES
    @given(protocol=protocols(), overrides=singlehop_overrides())
    def test_absorption_time_positive_and_metrics_sane(self, protocol, overrides):
        solution = api.solve_singlehop(protocol, **overrides)
        assert solution.expected_receiver_lifetime > 0.0
        assert 0.0 <= solution.inconsistency_ratio <= 1.0
        assert solution.message_rate >= 0.0

    @SOLVES
    @given(overrides=multihop_overrides())
    def test_multihop_stationary_sums_to_one(self, overrides):
        solution = api.solve_multihop("ss", **overrides)
        assert sum(solution.stationary.values()) == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= solution.inconsistency_ratio <= 1.0


class TestReachMonotonicity:
    @DATA
    @given(
        hops=st.integers(min_value=1, max_value=12),
        loss_low=st.floats(min_value=0.0, max_value=0.5),
        bump=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_reach_probability_monotone_in_loss(self, hops, loss_low, bump):
        lossier = min(0.9, loss_low + bump)
        low = reservation_defaults().replace(hops=hops, loss_rate=loss_low)
        high = reservation_defaults().replace(hops=hops, loss_rate=lossier)
        for hop in range(hops + 1):
            assert (
                high.refresh_reach_probability(hop)
                <= low.refresh_reach_probability(hop)
            )

    @DATA
    @given(
        hops=st.integers(min_value=1, max_value=12),
        loss=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_reach_profile_non_increasing_along_the_path(self, hops, loss):
        params = reservation_defaults().replace(hops=hops, loss_rate=loss)
        profile = reach_profile(hops_from_parameters(params))
        # reach[0] = 1 plus one survival probability per link.
        assert len(profile) == hops + 1
        assert profile[0] == 1.0
        assert all(0.0 <= p <= 1.0 for p in profile)
        for nearer, farther in zip(profile, profile[1:]):
            assert farther <= nearer


class TestStrategies:
    """The override strategies generate only points the presets accept."""

    @DATA
    @given(overrides=singlehop_overrides())
    def test_singlehop_overrides_are_accepted(self, overrides):
        params = apply_overrides(kazaa_defaults(), overrides)
        assert {key: getattr(params, key) for key in overrides} == overrides

    @DATA
    @given(overrides=multihop_overrides())
    def test_multihop_overrides_are_accepted(self, overrides):
        params = apply_overrides(reservation_defaults(), overrides)
        assert {key: getattr(params, key) for key in overrides} == overrides


class TestOverrideValidation:
    @DATA
    @given(
        key=st.text(min_size=1, max_size=12).filter(
            lambda k: k not in _MULTIHOP_FIELDS
        ),
        value=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_unknown_override_always_raises_scenario_error(self, key, value):
        with pytest.raises(ScenarioError):
            apply_overrides(reservation_defaults(), {key: value})


class TestArtifactRoundTrip:
    @DATA
    @given(result=experiment_results())
    def test_json_round_trip_lossless(self, result):
        rebuilt = ExperimentResult.from_json(result.to_json())
        assert rebuilt == result

    @DATA
    @given(one_series=series())
    def test_series_survive_rendering(self, one_series):
        # to_text/to_csv must never crash on any finite-valued series.
        panel = Panel("p", "x", "y", (one_series,), shared_x=False)
        result = ExperimentResult("fuzz", "t", (panel,))
        assert result.to_text()
        assert result.to_csv()
