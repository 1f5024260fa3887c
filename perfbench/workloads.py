"""Turn generated requests into calls on the program, and check outputs.

Each request is prepared into the program's own task objects before
its latency clock starts; the timed call then goes only through public
entry points: ``repro.runtime`` batch solvers, ``repro.runtime``
transient curves, ``repro.experiments.simsupport`` simulation batches
and ``repro.multihop.simulate_tree_replications``.  Every call passes
``jobs=1``: one client, one process.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys
from collections.abc import Callable

import repro.multihop as multihop
import repro.runtime as runtime
from repro.core import templates
from repro.core.multihop.heterogeneous import HeterogeneousHop
from repro.core.multihop.lumping import select_tree_backend
from repro.core.multihop.topology import Topology
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.experiments import simsupport
from repro.faults.gilbert import GilbertElliottParameters
from repro.faults.schedule import FaultSchedule, LinkFlap, NodeCrash
from repro.multihop import MultiHopSimConfig
from repro.protocols import SingleHopSimConfig, simulate_replications
from repro.validation.parity import PARITY_CLASSES, SPARSE_ABS_TOL, SPARSE_REL_TOL

from perfbench.requests import CHAIN_PROTOCOLS, SINGLEHOP_PROTOCOLS

#: Model metrics compared against the per-point reference.
_METRICS = (
    "inconsistency_ratio",
    "message_rate",
    "mean_leaf_inconsistency",
    "fanout_weighted_inconsistency",
)

#: Far past every transient grid: one outage per run.
_ONE_SHOT_PERIOD = 100_000.0
_FAULT_AT = 5.0


@dataclasses.dataclass
class Prepared:
    """One request as the program's task objects.

    ``call`` runs the request and returns one result per point group
    (a solution, a curve or a replication summary); ``points`` is the
    number of points it completes.  ``tasks`` and ``batch`` let the
    checker re-solve single tasks; ``entries`` names each task's
    backend entry point, for its parity class.
    """

    kind: str
    call: Callable[[], list]
    points: int
    tasks: list = dataclasses.field(default_factory=list)
    batch: Callable | None = None
    entries: list[str] = dataclasses.field(default_factory=list)


def _apply(params, axis: str, x: float):
    if axis == "refresh_interval":
        return params.with_coupled_timers(x)
    return params.replace(**{axis: x})


def topology(shape) -> Topology:
    return getattr(Topology, shape[0])(*shape[1:])


def _chain_entry(kind: str, protocol: Protocol, hops: int, backend: str) -> str:
    if backend == "auto":
        backend = templates.select_chain_backend(protocol, hops)
    prefix = "solve_multihop" if kind == "chain" else "solve_heterogeneous"
    return f"{prefix}_structured_tasks" if backend == "structured" else f"{prefix}_tasks"


def _batch(solver, tasks: list, kind: str, entries: list[str]) -> Prepared:
    return Prepared(
        kind=kind,
        call=lambda: solver(tasks, jobs=1),
        points=len(tasks),
        tasks=tasks,
        batch=solver,
        entries=entries,
    )


def _faults(request: dict) -> FaultSchedule:
    hops, duration = request["hops"], request["duration"]
    if request["fault"] == "flap":
        flap = LinkFlap(link=hops, period=_ONE_SHOT_PERIOD, down_duration=duration, offset=_FAULT_AT)
        return FaultSchedule(flaps=(flap,))
    return FaultSchedule(crashes=(NodeCrash(node=hops, at=_FAULT_AT, restart_after=duration),))


def prepare(request: dict) -> Prepared:
    """Build the program's task objects for one request."""
    kind = request["kind"]
    if kind == "singlehop":
        protocols = [Protocol(p) for p in SINGLEHOP_PROTOCOLS]
        tasks = [
            (p, _apply(SignalingParameters(), request["axis"], x))
            for p in protocols
            for x in request["xs"]
        ]
        entries = ["solve_singlehop_tasks"] * len(tasks)
        return _batch(runtime.solve_singlehop_batch, tasks, kind, entries)
    if kind in ("chain", "het"):
        hops, backend = request["hops"], request["backend"]
        base = MultiHopParameters(hops=hops)
        extra = () if backend == "auto" else (backend,)
        vector = ()
        if kind == "het":
            vector = (tuple(HeterogeneousHop(loss, base.delay) for loss in request["losses"]),)
        tasks = [
            (p, _apply(base, request["axis"], x)) + vector + extra
            for p in map(Protocol, CHAIN_PROTOCOLS)
            for x in request["xs"]
        ]
        entries = [_chain_entry(kind, task[0], hops, backend) for task in tasks]
        solver = runtime.solve_multihop_batch if kind == "chain" else runtime.solve_heterogeneous_batch
        return _batch(solver, tasks, kind, entries)
    if kind in ("gilbert_singlehop", "gilbert_chain"):
        channel = GilbertElliottParameters(*request["channel"])
        if kind == "gilbert_singlehop":
            protocols, base = list(map(Protocol, SINGLEHOP_PROTOCOLS)), SignalingParameters()
            solver, entry = runtime.solve_gilbert_singlehop_batch, "solve_gilbert_singlehop_tasks"
        else:
            protocols, base = list(map(Protocol, CHAIN_PROTOCOLS)), MultiHopParameters(hops=request["hops"])
            solver, entry = runtime.solve_gilbert_multihop_batch, "solve_gilbert_multihop_tasks"
        tasks = [
            (p, base, _apply(channel, request["axis"], x)) for p in protocols for x in request["xs"]
        ]
        return _batch(solver, tasks, kind, [entry] * len(tasks))
    if kind == "transient":
        times = tuple(request["times"])
        task = (
            Protocol(request["protocol"]),
            MultiHopParameters(hops=request["hops"]),
            None,
            "stationary",
            _faults(request),
            times,
        )
        return Prepared(
            kind=kind,
            call=lambda: [runtime.solve_transient_curve(task)],
            points=len(times),
            tasks=[task],
            entries=["solve_transient_curve"],
        )
    if kind == "tree":
        topo = topology(request["shape"])
        backend = request["backend"]
        base = MultiHopParameters(hops=topo.num_edges)
        extra = () if backend == "auto" else (backend,)
        protocol = Protocol(request["protocol"])
        tasks = [(protocol, _apply(base, request["axis"], x), topo) + extra for x in request["xs"]]
        route = select_tree_backend(topo) if backend == "auto" else backend
        entry = {
            "direct": "solve_tree_tasks",
            "lumped": "solve_tree_lumped_tasks",
            "iterative": "solve_tree_iterative_tasks",
        }[route]
        return _batch(runtime.solve_tree_batch, tasks, kind, [entry] * len(tasks))
    return _prepare_sim(request)


def _prepare_sim(request: dict) -> Prepared:
    kind = request["kind"]
    protocol = Protocol(request["protocol"])
    reps, seed = request["replications"], request["seed"]
    if kind == "sim_singlehop":
        params = SignalingParameters(
            loss_rate=request["loss_rate"], removal_rate=1.0 / request["session_s"]
        )
        task = (protocol, params, request["sessions"], reps, seed)
        return Prepared(
            kind=kind,
            call=lambda: simsupport.simulate_singlehop_batch([task], jobs=1),
            points=reps,
            tasks=[task],
        )
    if kind == "sim_chain":
        params = MultiHopParameters(hops=request["hops"], loss_rate=request["loss_rate"])
        gilbert = GilbertElliottParameters(*request["gilbert"]) if "gilbert" in request else None
        faults = None
        if "flap" in request:
            flap = request["flap"]
            faults = FaultSchedule(
                flaps=(LinkFlap(link=flap["link"], period=flap["period"], down_duration=flap["down"]),)
            )
        task = (protocol, params, gilbert, faults, request["horizon"], reps, seed)
        return Prepared(
            kind=kind,
            call=lambda: simsupport.simulate_faulted_multihop_batch([task], jobs=1),
            points=reps,
            tasks=[task],
        )
    topo = topology(request["shape"])
    horizon = request["horizon"]
    config = MultiHopSimConfig(
        protocol=protocol,
        params=MultiHopParameters(hops=topo.num_edges, loss_rate=request["loss_rate"]),
        horizon=horizon,
        warmup=0.1 * horizon,
        seed=seed,
    )
    return Prepared(
        kind=kind,
        call=lambda: [multihop.simulate_tree_replications(config, topo, reps)],
        points=reps,
        tasks=[config],
    )


# ----------------------------------------------------------------------
# Set-up: compile every structure a request list uses
# ----------------------------------------------------------------------


def lru_caches() -> list:
    """Every ``functools`` lru cache defined in the program's core modules."""
    caches = []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("repro.core") or module is None:
            continue
        for attr in vars(module).values():
            if hasattr(attr, "cache_clear") and getattr(attr, "__module__", None) == name:
                caches.append(attr)
    return caches


def warm_key(request: dict) -> tuple:
    """What a request compiles: requests with one key share structures."""
    kind = request["kind"]
    if kind in ("chain", "het"):
        return (kind, request["hops"], request["backend"])
    if kind == "gilbert_chain":
        return (kind, request["hops"])
    if kind == "transient":
        return (kind, request["protocol"], request["hops"], request["fault"])
    if kind == "tree":
        return (kind, request["protocol"], tuple(request["shape"]), request["backend"])
    if kind.startswith("sim_"):
        return (kind, request["protocol"])
    return (kind,)


def representatives(requests: list[dict]) -> list[Prepared]:
    """One prepared request per :func:`warm_key`, in first-seen order."""
    seen: dict[tuple, dict] = {}
    for request in requests:
        seen.setdefault(warm_key(request), request)
    return [prepare(request) for request in seen.values()]


def warm_up(representatives: list[Prepared], caches: list) -> int:
    """Cold-compile every structure: clear the compile caches, solve
    one point per protocol of each representative, then empty the memo
    cache and the failure counters.  Returns the number of structures.
    """
    for cache in caches:
        cache.cache_clear()
    for item in representatives:
        if item.batch is not None:
            first = {}
            for task in item.tasks:
                first.setdefault(task[0], task)
            item.batch(list(first.values()), jobs=1)
        elif item.kind == "transient":
            for task in item.tasks:
                runtime.solve_transient_curve(task[:5] + (task[5][:1],))
        else:
            item.call()
    new_pass()
    return len(representatives)


def new_pass() -> None:
    """Empty the memo cache and the failure counters before a pass."""
    runtime.global_cache().clear()
    runtime.failure_report().reset()


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _model_ok(solution) -> bool:
    stationary = getattr(solution, "stationary", None)
    if stationary is not None:
        values = list(stationary.values())
        if not all(_finite(v) and -1e-12 <= v <= 1.0 + 1e-12 for v in values):
            return False
        if abs(sum(values) - 1.0) > 1e-8:
            return False
    ratio, rate = solution.inconsistency_ratio, solution.message_rate
    return _finite(ratio) and 0.0 <= ratio <= 1.0 and _finite(rate) and rate > 0.0


def _curve_ok(curve) -> bool:
    return all(_finite(v) and -1e-9 <= v <= 1.0 + 1e-9 for v in curve.consistency)


def _sim_ok(result) -> bool:
    """Finite estimates, ratios in [0, 1], rates >= 0: a hard-state run
    can send nothing in a short window without updates."""
    if isinstance(result, simsupport.SimPoint):
        ratios, rates = [result.inconsistency], [result.message_rate]
        errors = [result.inconsistency_err, result.message_rate_err]
    else:
        ratios = result.samples("inconsistency_ratio")
        rates = result.samples("message_rate")
        errors = []
    return (
        all(_finite(r) and 0.0 <= r <= 1.0 for r in ratios)
        and all(_finite(r) and r >= 0.0 for r in rates)
        and all(_finite(e) and e >= 0.0 for e in errors)
    )


def invariants_hold(item: Prepared, results: list) -> bool:
    """Invariants on every point of one request's results."""
    if item.kind == "transient":
        check = _curve_ok
    elif item.kind.startswith("sim_"):
        check = _sim_ok
    else:
        check = _model_ok
    return len(results) == len(item.tasks) and all(check(r) for r in results)


def agrees(parity_class: str, reference: float, observed: float) -> bool:
    """Agreement as the parity class requires: ``==`` or the parity tolerance."""
    if parity_class == "exact":
        return reference == observed
    return math.isclose(reference, observed, rel_tol=SPARSE_REL_TOL, abs_tol=SPARSE_ABS_TOL)


def _solutions_agree(parity_class: str, reference, observed) -> bool:
    for metric in _METRICS:
        if hasattr(reference, metric) and not agrees(
            parity_class, getattr(reference, metric), getattr(observed, metric)
        ):
            return False
    if parity_class == "exact":
        return reference.stationary == observed.stationary
    return True


def _reference_solve(item: Prepared, position: int):
    """Re-solve one task cold through the per-point reference models."""
    previous = os.environ.get("REPRO_TEMPLATES")
    os.environ["REPRO_TEMPLATES"] = "0"
    try:
        runtime.global_cache().clear()
        return item.batch([item.tasks[position]], jobs=1)[0]
    finally:
        if previous is None:
            os.environ.pop("REPRO_TEMPLATES", None)
        else:
            os.environ["REPRO_TEMPLATES"] = previous


def reference_agrees(item: Prepared, results: list, rng: random.Random) -> bool:
    """One seeded point of the request against its per-point reference."""
    position = rng.randrange(len(item.tasks))
    if item.kind == "transient":
        task, curve = item.tasks[position], results[position]
        index = rng.randrange(len(curve.times))
        runtime.global_cache().clear()
        point = runtime.solve_transient_point(task[:5] + ((curve.times[index],),))
        return agrees(PARITY_CLASSES["solve_transient_point"], point, curve.consistency[index])
    parity_class = PARITY_CLASSES[item.entries[position]]
    return _solutions_agree(parity_class, _reference_solve(item, position), results[position])


def _samples(result) -> dict:
    if isinstance(result, simsupport.SimPoint):
        return dataclasses.asdict(result)
    return {name: result.samples(name) for name in ("inconsistency_ratio", "message_rate")}


def rerun_agrees(item: Prepared, results: list, rng: random.Random) -> bool:
    """Re-run a simulation request: it must be bit-identical."""
    return [_samples(r) for r in item.call()] == [_samples(r) for r in results]


def engines_agree(item: Prepared, results: list, rng: random.Random) -> bool:
    """The event engine must reproduce the vectorized SS/SS+ER samples."""
    protocol, params, sessions, reps, seed = item.tasks[0]
    config = SingleHopSimConfig(protocol=protocol, params=params, sessions=sessions, seed=seed)
    scalar = simulate_replications(config, reps, engine="scalar")
    vector = simulate_replications(config, reps, engine="vectorized")
    return all(
        scalar.samples(metric) == vector.samples(metric)
        for metric in ("inconsistency_ratio", "normalized_message_rate")
    )


def _sample_groups(item: Prepared) -> list[tuple]:
    """The check groups a request falls in; one request per group is checked."""
    if item.kind == "sim_singlehop" and item.tasks[0][0] in (Protocol.SS, Protocol.SS_ER):
        return [(rerun_agrees, item.kind), (engines_agree, item.kind)]
    if item.kind.startswith("sim_"):
        return [(rerun_agrees, item.kind)]
    return [(reference_agrees, item.kind, item.entries[0])]


def check(prepared: list[Prepared], results: list, failed: set[int], seed: int) -> set[int]:
    """Indices of requests whose outputs fail a check.

    ``results[i]`` is request ``i``'s output (``None`` when it raised;
    those are already in ``failed``).  Invariants run on every request.
    Then one seeded request per family and backend is re-solved through
    the per-point reference models, and one per simulation kind is
    re-run; one SS or SS+ER point is also re-run on the event engine.
    """
    bad = set()
    for index, (item, result) in enumerate(zip(prepared, results)):
        if index not in failed and not invariants_hold(item, result):
            print(f"perfbench request {index} broke an output invariant", file=sys.stderr)
            bad.add(index)
    groups: dict[tuple, list[int]] = {}
    for index, item in enumerate(prepared):
        if index not in failed and index not in bad:
            for group in _sample_groups(item):
                groups.setdefault(group, []).append(index)
    rng = random.Random(f"check:{seed}")
    for group, indices in groups.items():
        index = rng.choice(indices)
        try:
            ok = group[0](prepared[index], results[index], rng)
        except Exception as error:  # the program raised: the output is unverified
            print(f"perfbench check of request {index} raised {error!r}", file=sys.stderr)
            ok = False
        if not ok:
            print(f"perfbench request {index} failed its output check", file=sys.stderr)
            bad.add(index)
    return bad
