"""Public library facade.

The stable, importable surface for driving the reproduction as a
library — scenario execution, ad-hoc parameter sweeps, single solves
and validation — without reaching into the experiment/runtime
internals:

>>> import repro.api as api
>>> result = api.run_scenario("fig4", fidelity="smoke")
>>> result.provenance.fidelity
'smoke'

Everything routes through the :mod:`repro.runtime` batch path, so
results are memo-cached, solved through compiled chain templates and
(with ``jobs``) fanned across worker processes.  The re-exported
:class:`~repro.core.multihop.topology.Topology` builds the rooted
trees that :func:`solve_tree` and the tree scenarios consume.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_model import TreeSolution
from repro.core.parameters import (
    MultiHopParameters,
    SignalingParameters,
    kazaa_defaults,
    reservation_defaults,
)
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopSolution
from repro.experiments import run_scenario
from repro.experiments.common import metric_series
from repro.experiments.runner import ExperimentResult, Series  # noqa: F401 - re-export
from repro.experiments.spec import (
    ScenarioSpec,
    apply_overrides,
    metric as _metric,
    parse_protocols,
    scenario_ids,
    scenarios,
)
from repro.runtime import solve_multihop_batch, solve_singlehop_batch, solve_tree_batch
from repro.validation import ValidationReport  # noqa: F401 - re-export
from repro.validation import validate_scenario as _validate_scenario

__all__ = [
    "Topology",
    "list_scenarios",
    "run_scenario",
    "solve_multihop",
    "solve_singlehop",
    "solve_tree",
    "sweep",
    "validate_scenario",
]


def list_scenarios() -> tuple[ScenarioSpec, ...]:
    """Every registered scenario spec, sorted by id.

    The registry holds one spec per paper artifact — ``fig4`` ...
    ``fig12``, ``fig17`` ... ``fig19``, ``table1`` — plus the
    beyond-the-paper studies: ``scaling`` (heterogeneous chains up to
    128 hops), the tree-topology scenarios ``tree_depth``,
    ``tree_fanout``, ``tree_deep`` and ``tree_wide`` (multicast
    fan-out over star/broom/binary/ternary/skewed trees; the latter
    two reach past the direct enumeration cap via the lumped and
    iterative backends), and the fault-injection scenarios ``burst_loss``,
    ``burst_loss_hops`` and ``link_flap`` (Gilbert-Elliott bursty loss
    and link churn; see ``docs/robustness.md``), and the transient
    recovery scenarios ``time_to_consistency``, ``recovery_flap`` and
    ``recovery_crash`` (uniformization-based consistency-over-time
    curves; see ``docs/transient.md``).  The same ids drive the CLI's
    ``run``/``validate`` verbs and ``repro-signaling all``, so
    registry, docs and CLI stay consistent:

    >>> import repro.api as api
    >>> [spec.scenario_id for spec in api.list_scenarios()]
    ... # doctest: +NORMALIZE_WHITESPACE
    ['burst_loss', 'burst_loss_hops', 'fig10', 'fig11', 'fig12',
     'fig17', 'fig18', 'fig19', 'fig4', 'fig5', 'fig6', 'fig7',
     'fig8', 'fig9', 'link_flap', 'recovery_crash', 'recovery_flap',
     'scaling', 'table1', 'time_to_consistency',
     'tree_deep', 'tree_depth', 'tree_fanout', 'tree_wide']
    >>> api.list_scenarios()[0].fidelity_names()
    ('full', 'fast', 'smoke')
    """
    registry = scenarios()
    return tuple(registry[scenario_id] for scenario_id in scenario_ids())


def validate_scenario(
    scenario: str | ScenarioSpec,
    fidelity: str = "smoke",
    *,
    jobs: int | None = None,
    seed: int | None = None,
) -> ValidationReport:
    """Run one scenario's validation plan and return the report.

    The plan is derived from the scenario spec (see
    :mod:`repro.validation`): artifact round-trip and finiteness
    checks, base-point invariants, the backend parity matrix for the
    scenario's model family, and — for scenarios with a
    :class:`~repro.experiments.spec.SimPlan` — Student-t equivalence of
    the replicated simulations against the analytic predictions.
    ``report.passed`` aggregates every check;
    ``report.to_json()``/``to_text()`` render the artifact:

    >>> import repro.api as api
    >>> report = api.validate_scenario("tree_fanout", fidelity="smoke")
    >>> report.passed
    True
    >>> report.check("tree SS: direct==referee").kind
    'parity'
    """
    return _validate_scenario(scenario, fidelity, jobs=jobs, seed=seed)


def solve_singlehop(
    protocol: Protocol | str,
    params: SignalingParameters | None = None,
    **overrides: float,
) -> SingleHopSolution:
    """Solve one single-hop point on the Kazaa defaults.

    ``overrides`` replace preset fields (validated), e.g.
    ``solve_singlehop("ss+er", loss_rate=0.05)``:

    >>> import repro.api as api
    >>> solution = api.solve_singlehop("ss+er", loss_rate=0.05)
    >>> 0.0 < solution.inconsistency_ratio < 1.0
    True
    >>> solution.expected_receiver_lifetime > 0.0
    True
    """
    (protocol,) = parse_protocols([protocol])
    base = params if params is not None else kazaa_defaults()
    if overrides:
        base = apply_overrides(base, overrides)
    return solve_singlehop_batch([(protocol, base)])[0]


def solve_multihop(
    protocol: Protocol | str,
    params: MultiHopParameters | None = None,
    **overrides: float,
) -> TreeSolution:
    """Solve one multi-hop point on the reservation defaults.

    ``overrides`` replace preset fields (validated), e.g.
    ``solve_multihop("hs", hops=30)``:

    >>> import repro.api as api
    >>> solution = api.solve_multihop("hs", hops=30)
    >>> solution.params.hops
    30
    >>> len(solution.hop_profile())
    30
    """
    (protocol,) = parse_protocols([protocol])
    base = params if params is not None else reservation_defaults()
    if overrides:
        base = apply_overrides(base, overrides)
    return solve_multihop_batch([(protocol, base)])[0]


def solve_tree(
    protocol: Protocol | str,
    topology: Topology,
    params: MultiHopParameters | None = None,
    backend: str = "auto",
    **overrides: float,
) -> TreeSolution:
    """Solve one tree (multicast) point on the reservation defaults.

    ``topology`` is a rooted :class:`Topology` (``Topology.chain``,
    ``star``, ``kary``, ``broom``, ``skewed``); ``params.hops`` is
    bound to its edge count automatically.  ``backend`` picks the solve
    path — ``"auto"`` (route by projected state count), ``"direct"``
    (exact enumeration, bit-parity class), ``"lumped"`` (exact orbit
    lumping of isomorphic sibling subtrees) or ``"iterative"``
    (ILU/GMRES on the raw space); symmetric topologies far beyond the
    direct cap, e.g. ``Topology.kary(2, 3)`` with 15129 raw states,
    solve exactly through the lumped route.  ``overrides`` replace the
    remaining preset fields:

    >>> import repro.api as api
    >>> solution = api.solve_tree("ss", api.Topology.kary(2, 2))
    >>> len(solution.leaf_profile())
    4
    >>> 0.0 < solution.fanout_weighted_inconsistency < 1.0
    True

    A fan-out-1 (chain) topology reproduces :func:`solve_multihop`
    bit for bit:

    >>> tree = api.solve_tree("ss", api.Topology.chain(5))
    >>> tree.inconsistency_ratio == api.solve_multihop("ss", hops=5).inconsistency_ratio
    True
    """
    (protocol,) = parse_protocols([protocol])
    base = params if params is not None else reservation_defaults()
    if overrides:
        base = apply_overrides(base, overrides)
    base = base.replace(hops=topology.num_edges)
    return solve_tree_batch([(protocol, base, topology, backend)])[0]


def sweep(
    param: str,
    values: Sequence[float],
    *,
    metric: str | Callable = "inconsistency_ratio",
    protocols: Sequence[Protocol | str] | str | None = None,
    base: SignalingParameters | MultiHopParameters | None = None,
    multihop: bool = False,
    jobs: int | None = None,
) -> list[Series]:
    """Sweep one parameter field; one series per protocol.

    ``param`` names a field of the base preset (validated per point, so
    typos and out-of-range values fail loudly); ``metric`` is a
    registered metric name or a ``solution -> float`` callable.  Set
    ``multihop=True`` to sweep the multi-hop model on the reservation
    defaults instead of the single-hop Kazaa defaults:

    >>> import repro.api as api
    >>> series = api.sweep("loss_rate", (0.0, 0.05, 0.1), protocols="ss,hs")
    >>> [s.label for s in series]
    ['SS', 'HS']
    >>> series[0].x
    (0.0, 0.05, 0.1)
    """
    if base is None:
        base = reservation_defaults() if multihop else kazaa_defaults()
    if protocols is None:
        selected = Protocol.multihop_family() if multihop else tuple(Protocol)
    else:
        selected = parse_protocols(protocols)
    metric_fn = _metric(metric) if isinstance(metric, str) else metric
    return metric_series(
        "multihop" if multihop else "singlehop",
        values,
        lambda x: apply_overrides(base, {param: x}),
        metric_fn,
        selected,
        jobs,
    )
