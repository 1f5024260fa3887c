"""Declarative scenario specifications.

A paper artifact (or any variant of one) is described by a frozen
:class:`ScenarioSpec` instead of a hand-written ``run(fast)`` callable:
the spec names the base parameter preset, the protocol set, the sweep
axes, the per-panel series plans (which solver family, which parameter
binder, which metric) and the named fidelity profiles.  The generic
executor (:mod:`repro.experiments.executor`) assembles any spec into an
:class:`~repro.experiments.runner.ExperimentResult` through the
template/memo-cache batch path, so new scenarios — or parameter
variants of canned ones — need no new imperative code.

Extension points are small named registries:

* :func:`register_binder` — ``name -> (base_params, x) -> params`` sweep
  binders (binders of families whose tasks carry more inputs return a
  tuple, e.g. ``(params, hop_profile)``);
* :func:`register_metric` — ``name -> (solution) -> float`` metric
  bindings;
* :func:`register_notes_hook` — ``name -> (panels) -> notes`` for
  scenarios whose notes are computed from the rendered series;
* :func:`register_scenario` — the scenario registry itself.

Specs are plain frozen data; mappings passed to :class:`Axis`,
:class:`FidelityProfile` and :class:`ScenarioSpec` are normalized to
sorted tuples so every spec is hashable and order-independent.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

from repro.core.parameters import (
    MultiHopParameters,
    SignalingParameters,
    kazaa_defaults,
    reservation_defaults,
)
from repro.core.protocols import Protocol
from repro.experiments.runner import geometric_sweep, linear_sweep
from repro.faults.schedule import FaultSchedule

__all__ = [
    "Axis",
    "FidelityProfile",
    "PanelSpec",
    "ScenarioError",
    "ScenarioSpec",
    "SeriesPlan",
    "SimPlan",
    "TransientPlan",
    "apply_overrides",
    "base_parameters",
    "binder",
    "metric",
    "model_family",
    "notes_hook",
    "parse_overrides",
    "parse_protocol",
    "parse_protocols",
    "register_binder",
    "register_metric",
    "register_notes_hook",
    "register_scenario",
    "scenario",
    "scenario_ids",
    "scenarios",
]

#: The standard fidelity names every scenario provides.
FULL = "full"
FAST = "fast"
SMOKE = "smoke"
FIDELITIES = (FULL, FAST, SMOKE)


class ScenarioError(ValueError):
    """A scenario, override, fidelity or protocol selection is invalid."""


def _freeze_map(mapping) -> tuple:
    """Normalize a mapping (or pair sequence) to a sorted pair tuple."""
    if isinstance(mapping, Mapping):
        items = mapping.items()
    else:
        items = tuple(mapping)
    return tuple(sorted((str(k), v) for k, v in items))


# ----------------------------------------------------------------------
# Axes and fidelity profiles
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Axis:
    """One declarative sweep axis.

    ``kind`` is ``"geometric"``, ``"linear"`` or ``"explicit"``; the
    generated kinds carry ``low``/``high``/``points``, the explicit kind
    carries ``values``.  The spec's numbers are the *full*-fidelity
    resolution; :class:`FidelityProfile` overrides thin them per axis.
    """

    name: str
    kind: str
    low: float = 0.0
    high: float = 0.0
    points: int = 0
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("geometric", "linear", "explicit"):
            raise ScenarioError(f"axis {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "explicit" and not self.values:
            raise ScenarioError(f"axis {self.name!r}: explicit axis needs values")
        if self.kind != "explicit" and self.points < 2:
            raise ScenarioError(f"axis {self.name!r}: need at least 2 points")

    def resolve(self, profile: "FidelityProfile") -> tuple[float, ...]:
        """The swept x values at one fidelity."""
        values = profile.axis_value_map().get(self.name)
        if values is not None:
            return tuple(values)
        if self.kind == "explicit":
            return self.values
        points = profile.axis_point_map().get(self.name, self.points)
        sweep = geometric_sweep if self.kind == "geometric" else linear_sweep
        return sweep(self.low, self.high, points)


@dataclasses.dataclass(frozen=True)
class FidelityProfile:
    """A named resolution: per-axis thinning plus simulation effort.

    ``axis_points`` overrides a generated axis's point count;
    ``axis_values`` replaces any axis's values outright (this is how a
    fast profile can swap a geometric sweep for a fixed short list, as
    Fig. 11 does).  ``replications``/``sessions``/``sim_budget``
    parameterize the validation scenarios' discrete-event simulations.
    Mappings freeze to sorted tuples so profiles stay hashable:

    >>> profile = FidelityProfile("fast", axis_points={"hops": 4})
    >>> profile.axis_points
    (('hops', 4),)
    >>> profile.axis_point_map()
    {'hops': 4}
    """

    name: str
    axis_points: tuple[tuple[str, int], ...] = ()
    axis_values: tuple[tuple[str, tuple[float, ...]], ...] = ()
    replications: int | None = None
    sessions: int | None = None
    sim_budget: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis_points", _freeze_map(self.axis_points))
        object.__setattr__(
            self,
            "axis_values",
            tuple(
                (name, tuple(float(v) for v in values))
                for name, values in _freeze_map(self.axis_values)
            ),
        )

    def axis_point_map(self) -> dict[str, int]:
        return dict(self.axis_points)

    def axis_value_map(self) -> dict[str, tuple[float, ...]]:
        return dict(self.axis_values)


# ----------------------------------------------------------------------
# Series plans and panel layout
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SeriesPlan:
    """How one group of series in a panel is produced.

    ===============  ====================================================
    ``sweep``        one metric series per protocol over ``axis``
                     (``binder`` maps the base preset and each x to a
                     parameter point; :func:`model_family` picks the
                     model that solves it)
    ``parametric``   tradeoff curves: sweep ``axis`` through ``binder``
                     and plot ``y_metric`` against ``x_metric``
    ``point``        one (x_metric, y_metric) point per protocol at the
                     base parameters (Fig. 9's HS marker)
    ``hop_profile``  per-hop inconsistency profile of one solve per
                     protocol (Fig. 17)
    ``sim``          replicated discrete-event simulation series with
                     confidence intervals (Figs. 11-12; needs the
                     spec's :class:`SimPlan`)
    ``table``        Table I transition-rate rows
    ===============  ====================================================

    ``protocols`` pins the plan to a subset of the scenario's protocol
    set (empty tuple means "use the scenario set"); a user protocol
    selection intersects with it.  ``label_suffix`` is appended to the
    label of every series the plan produces, whatever its kind, so
    several plans can share a panel.
    """

    kind: str
    axis: str = ""
    binder: str = ""
    metric: str = ""
    x_metric: str = ""
    y_metric: str = ""
    protocols: tuple[Protocol, ...] = ()
    label_suffix: str = ""

    _KINDS = ("sweep", "parametric", "point", "hop_profile", "sim", "table")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ScenarioError(f"unknown series-plan kind {self.kind!r}")


@dataclasses.dataclass(frozen=True)
class PanelSpec:
    """Declarative panel layout: labels, scales and series plans."""

    name: str
    x_label: str
    y_label: str
    plans: tuple[SeriesPlan, ...]
    log_x: bool = False
    log_y: bool = False
    shared_x: bool = True

    def __post_init__(self) -> None:
        if not self.plans:
            raise ScenarioError(f"panel {self.name!r} has no series plans")


@dataclasses.dataclass(frozen=True)
class SimPlan:
    """Simulation wiring for the validation scenarios.

    ``sessions_mode`` is ``"fixed"`` (the fidelity profile's
    ``sessions`` count at every point) or ``"budget"`` (derive the
    session count from the swept session length so total simulated time
    stays near the profile's ``sim_budget`` seconds, as Fig. 11 does).
    """

    seed: int
    sessions_mode: str = "fixed"

    def __post_init__(self) -> None:
        if self.sessions_mode not in ("fixed", "budget"):
            raise ScenarioError(f"unknown sessions_mode {self.sessions_mode!r}")


@dataclasses.dataclass(frozen=True)
class TransientPlan:
    """The timeline of a ``transient``-family scenario.

    ``initial`` seeds the analytic curve and fixes the sim warmup
    convention: ``"empty"`` starts cold (no installed state, warmup
    must be 0 so the sim measures from its own cold start) and
    ``"stationary"`` starts warmed up (warmup must be positive; the
    model starts at the nominal stationary distribution and the sim
    discards ``warmup`` virtual seconds).  ``faults`` states flap
    offsets and crash times *relative to the start of measurement* —
    the executor shifts them by ``warmup`` for the simulator
    (:meth:`repro.faults.schedule.FaultSchedule.shifted`).
    """

    initial: str = "empty"
    faults: FaultSchedule | None = None
    warmup: float = 0.0

    def __post_init__(self) -> None:
        if self.initial not in ("empty", "stationary"):
            raise ScenarioError(
                f"transient initial must be 'empty' or 'stationary', "
                f"got {self.initial!r}"
            )
        if self.initial == "empty" and self.warmup != 0.0:
            raise ScenarioError("a cold ('empty') start cannot have a sim warmup")
        if self.initial == "stationary" and self.warmup <= 0.0:
            raise ScenarioError(
                "a 'stationary' start needs a positive sim warmup to "
                "approximate the stationary distribution"
            )


# ----------------------------------------------------------------------
# The scenario spec
# ----------------------------------------------------------------------

_PRESETS: dict[str, Callable[[], SignalingParameters | MultiHopParameters]] = {
    "kazaa": kazaa_defaults,
    "reservation": reservation_defaults,
}

_FAMILIES = (
    "singlehop",
    "multihop",
    "heterogeneous",
    "tree",
    "burst_loss",
    "link_flap",
    "transient",
)


def model_family(spec: ScenarioSpec) -> str:
    """The :data:`repro.runtime.solvers.FAMILIES` tag of ``spec``'s model.

    A ``burst_loss`` scenario solves the Gilbert-Elliott product of its
    preset's chain: ``gilbert-multihop`` on multi-hop parameters,
    ``gilbert-singlehop`` otherwise.  Every other family is its own tag;
    ``link_flap`` (simulation only) and ``transient`` (time-dependent
    curves) name no ``FAMILIES`` row.
    """
    if spec.family != "burst_loss":
        return spec.family
    if isinstance(_PRESETS[spec.preset](), MultiHopParameters):
        return "gilbert-multihop"
    return "gilbert-singlehop"


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A frozen, declarative description of one runnable scenario.

    Specs validate themselves on construction (family, preset, panel
    and fidelity coherence) and default to the standard
    ``full``/``fast``/``smoke`` fidelity trio:

    >>> from repro.core.protocols import Protocol
    >>> spec = ScenarioSpec(
    ...     scenario_id="demo", title="Demo sweep", artifact="demo",
    ...     family="singlehop", preset="kazaa", protocols=(Protocol.SS,),
    ...     axes=(Axis("loss", "linear", low=0.0, high=0.1, points=3),),
    ...     panels=(PanelSpec("p", "loss p", "I", (SeriesPlan(
    ...         "sweep", axis="loss", binder="loss_rate",
    ...         metric="inconsistency_ratio"),)),))
    >>> spec.fidelity_names()
    ('full', 'fast', 'smoke')
    >>> spec.axis("loss").resolve(spec.fidelity("full"))
    (0.0, 0.05, 0.1)

    See ``docs/authoring.md`` for the full authoring tutorial.
    """

    scenario_id: str
    title: str
    artifact: str
    family: str
    preset: str
    protocols: tuple[Protocol, ...]
    panels: tuple[PanelSpec, ...]
    axes: tuple[Axis, ...] = ()
    fidelities: tuple[FidelityProfile, ...] = ()
    base_overrides: tuple[tuple[str, float], ...] = ()
    notes: tuple[str, ...] = ()
    notes_hook: str = ""
    sim: SimPlan | None = None
    transient: TransientPlan | None = None

    def __post_init__(self) -> None:
        if self.family == "transient" and self.transient is None:
            raise ScenarioError(
                f"{self.scenario_id}: a 'transient' scenario needs a TransientPlan"
            )
        if self.family != "transient" and self.transient is not None:
            raise ScenarioError(
                f"{self.scenario_id}: a TransientPlan needs family='transient'"
            )
        if self.family not in _FAMILIES:
            raise ScenarioError(
                f"{self.scenario_id}: unknown family {self.family!r}; "
                f"expected one of {_FAMILIES}"
            )
        if self.preset not in _PRESETS:
            raise ScenarioError(
                f"{self.scenario_id}: unknown preset {self.preset!r}; "
                f"expected one of {sorted(_PRESETS)}"
            )
        if not self.panels:
            raise ScenarioError(f"{self.scenario_id}: a scenario needs panels")
        object.__setattr__(self, "base_overrides", _freeze_map(self.base_overrides))
        if not self.fidelities:
            object.__setattr__(
                self, "fidelities", tuple(FidelityProfile(name) for name in FIDELITIES)
            )
        names = [profile.name for profile in self.fidelities]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{self.scenario_id}: duplicate fidelity names")
        if FULL not in names:
            raise ScenarioError(f"{self.scenario_id}: a {FULL!r} fidelity is required")
        axis_names = {axis.name for axis in self.axes}
        for profile in self.fidelities:
            referenced = [name for name, _ in profile.axis_points]
            referenced += [name for name, _ in profile.axis_values]
            unknown = sorted(set(referenced) - axis_names)
            if unknown:
                raise ScenarioError(
                    f"{self.scenario_id}: fidelity {profile.name!r} references "
                    f"unknown axis(es) {', '.join(unknown)}"
                )
        for panel in self.panels:
            for plan in panel.plans:
                if plan.axis and plan.axis not in axis_names:
                    raise ScenarioError(
                        f"{self.scenario_id}: panel {panel.name!r} references "
                        f"unknown axis {plan.axis!r}"
                    )
                if plan.kind == "sim" and self.sim is None:
                    raise ScenarioError(
                        f"{self.scenario_id}: a 'sim' series plan needs a SimPlan"
                    )

    def fidelity_names(self) -> tuple[str, ...]:
        """The named fidelity profiles, spec order."""
        return tuple(profile.name for profile in self.fidelities)

    def fidelity(self, name: str) -> FidelityProfile:
        """Look up a fidelity profile by name."""
        for profile in self.fidelities:
            if profile.name == name:
                return profile
        raise ScenarioError(
            f"{self.scenario_id}: unknown fidelity {name!r}; "
            f"available: {', '.join(self.fidelity_names())}"
        )

    def axis(self, name: str) -> Axis:
        """Look up a sweep axis by name."""
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ScenarioError(f"{self.scenario_id}: unknown axis {name!r}")


# ----------------------------------------------------------------------
# Base parameters and overrides
# ----------------------------------------------------------------------


def base_parameters(
    spec: ScenarioSpec, overrides: Mapping[str, float] | None = None
) -> SignalingParameters | MultiHopParameters:
    """The spec's base preset with spec-level then user overrides applied.

    A transient scenario's faults must hit the resolved chain's last
    hop, the one position where its degraded chain and crash projection
    are exact; an override that moves the chain's end off the fault
    raises :class:`ScenarioError`.
    """
    params = _PRESETS[spec.preset]()
    if spec.base_overrides:
        params = params.replace(**dict(spec.base_overrides))
    if overrides:
        params = apply_overrides(params, overrides)
    if spec.transient is not None and spec.transient.faults is not None:
        last = params.hops if isinstance(params, MultiHopParameters) else 1
        faults = spec.transient.faults
        elements = [("link", flap.link) for flap in faults.flaps]
        elements += [("node", crash.node) for crash in faults.crashes]
        for kind, element in elements:
            if element != last:
                raise ScenarioError(
                    f"{spec.scenario_id} faults {kind} {element}, but hops={last} "
                    f"makes {kind} {last} the last: its transient model holds "
                    "only for a fault on the last hop"
                )
    return params


def apply_overrides(params, overrides: Mapping[str, float]):
    """Apply validated field overrides to a parameter preset.

    Unknown field names raise :class:`ScenarioError` listing the valid
    ones; values for integer fields (``hops``) are coerced, and the
    preset's own range validation still applies.
    """
    fields = {field.name: field for field in dataclasses.fields(params)}
    unknown = sorted(set(overrides) - set(fields))
    if unknown:
        raise ScenarioError(
            f"unknown parameter(s) {', '.join(unknown)}; "
            f"valid: {', '.join(sorted(fields))}"
        )
    coerced = {}
    for name, value in overrides.items():
        coerced[name] = int(value) if fields[name].type == "int" else float(value)
    try:
        return params.replace(**coerced)
    except ValueError as error:
        raise ScenarioError(str(error)) from None


def parse_overrides(assignments: Sequence[str]) -> dict[str, float]:
    """Parse ``key=value`` strings (the CLI's ``--set``) into overrides."""
    overrides: dict[str, float] = {}
    for assignment in assignments:
        key, separator, text = assignment.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ScenarioError(
                f"malformed override {assignment!r}; expected key=value"
            )
        try:
            value = float(text)
        except ValueError:
            raise ScenarioError(
                f"override {key!r}: {text!r} is not a number"
            ) from None
        overrides[key] = value
    return overrides


def parse_protocol(name: str) -> Protocol:
    """Parse a protocol from its value or enum name, case-insensitively.

    Accepts ``"SS+ER"``, ``"ss+er"``, ``"ss_er"``, ``"ss-er"`` alike.
    """

    def norm(text: str) -> str:
        return text.strip().lower().replace("_", "+").replace("-", "+")

    wanted = norm(name)
    for protocol in Protocol:
        if wanted in (norm(protocol.value), norm(protocol.name)):
            return protocol
    raise ScenarioError(
        f"unknown protocol {name!r}; "
        f"valid: {', '.join(p.value for p in Protocol)}"
    )


def parse_protocols(text: str | Sequence[str]) -> tuple[Protocol, ...]:
    """Parse a comma-separated list (or sequence) of protocol names."""
    names = text.split(",") if isinstance(text, str) else list(text)
    selection = tuple(
        item if isinstance(item, Protocol) else parse_protocol(item)
        for item in names
        if not (isinstance(item, str) and not item.strip())
    )
    if not selection:
        raise ScenarioError("empty protocol selection")
    return selection


# ----------------------------------------------------------------------
# Named registries: binders, metrics, notes hooks, scenarios
# ----------------------------------------------------------------------

_BINDERS: dict[str, Callable] = {}
_METRICS: dict[str, Callable] = {}
_NOTES_HOOKS: dict[str, Callable] = {}
_SCENARIOS: dict[str, ScenarioSpec] = {}


def _register(registry: dict, kind: str, name: str, value):
    if name in registry:
        raise ScenarioError(f"duplicate {kind} {name!r}")
    registry[name] = value
    return value


def register_binder(name: str, fn: Callable | None = None):
    """Register a named sweep binder ``(base_params, x) -> params``.

    A binder returns the task inputs after the protocol: bare parameters,
    or a tuple such as ``(params, hop_profile)``, ``(params, topology)``
    or ``(params, gilbert)``.  Usable as a decorator
    (``@register_binder("name")``) or a plain call.
    """
    if fn is not None:
        return _register(_BINDERS, "binder", name, fn)
    return lambda fn: _register(_BINDERS, "binder", name, fn)


def register_metric(name: str, fn: Callable | None = None):
    """Register a named metric binding ``(solution) -> float``."""
    if fn is not None:
        return _register(_METRICS, "metric", name, fn)
    return lambda fn: _register(_METRICS, "metric", name, fn)


def register_notes_hook(name: str, fn: Callable | None = None):
    """Register a notes hook ``(panels) -> tuple[str, ...]``."""
    if fn is not None:
        return _register(_NOTES_HOOKS, "notes hook", name, fn)
    return lambda fn: _register(_NOTES_HOOKS, "notes hook", name, fn)


def binder(name: str) -> Callable:
    """Look up a registered binder."""
    try:
        return _BINDERS[name]
    except KeyError:
        raise ScenarioError(f"unknown binder {name!r}") from None


def metric(name: str) -> Callable:
    """Look up a registered metric binding."""
    try:
        return _METRICS[name]
    except KeyError:
        raise ScenarioError(f"unknown metric {name!r}") from None


def notes_hook(name: str) -> Callable:
    """Look up a registered notes hook."""
    try:
        return _NOTES_HOOKS[name]
    except KeyError:
        raise ScenarioError(f"unknown notes hook {name!r}") from None


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add a spec to the scenario registry (importing
    :mod:`repro.experiments` populates it)."""
    return _register(_SCENARIOS, "scenario id", spec.scenario_id, spec)


def scenario(scenario_id: str) -> ScenarioSpec:
    """Look up a registered scenario spec."""
    try:
        return _SCENARIOS[scenario_id]
    except KeyError:
        raise KeyError(
            f"unknown scenario {scenario_id!r}; available: {sorted(_SCENARIOS)}"
        ) from None


def scenario_ids() -> tuple[str, ...]:
    """All registered scenario ids, in a stable order."""
    return tuple(sorted(_SCENARIOS))


def scenarios() -> dict[str, ScenarioSpec]:
    """All registered scenario specs."""
    return dict(_SCENARIOS)


# ----------------------------------------------------------------------
# Built-in binders and metrics (the vocabulary the canned specs use)
# ----------------------------------------------------------------------

register_binder("session_length", lambda base, x: base.replace(removal_rate=1.0 / x))
register_binder("loss_rate", lambda base, x: base.replace(loss_rate=x))
register_binder(
    "delay_coupled_retx",
    lambda base, x: base.replace(delay=x, retransmission_interval=4.0 * x),
)
register_binder("coupled_timers", lambda base, x: base.with_coupled_timers(x))
register_binder("timeout_interval", lambda base, x: base.replace(timeout_interval=x))
register_binder(
    "retransmission_interval",
    lambda base, x: base.replace(retransmission_interval=x),
)
register_binder("update_rate", lambda base, x: base.replace(update_rate=x))
register_binder("hops", lambda base, x: base.replace(hops=int(x)))

register_metric("inconsistency_ratio", lambda solution: solution.inconsistency_ratio)
register_metric(
    "normalized_message_rate", lambda solution: solution.normalized_message_rate
)
register_metric("message_rate", lambda solution: solution.message_rate)
register_metric("integrated_cost_10", lambda solution: solution.integrated_cost(10.0))

#: Simulation metrics resolve to (mean, half-width) attribute pairs.
SIM_METRICS: dict[str, tuple[str, str]] = {
    "inconsistency": ("inconsistency", "inconsistency_err"),
    "message_rate": ("message_rate", "message_rate_err"),
}
