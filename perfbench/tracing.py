"""In-memory spans around the program's public functions, and the
per-layer metrics derived from them.

The benchmark never edits the program: :func:`instrument` swaps each
traced function, at the name its caller looks up, for a wrapper that
records a span, and :meth:`Instrumentation.close` puts the originals
back.  Spans live in memory (lists) and are written out once the run
ends.  With tracing off nothing is patched, so the untraced run pays
nothing.

A span is ``[name, start, end, parent, request, points]``: ``parent``
is the index of the enclosing span (``-1`` for a request span) and
``request`` the id of the request that caused it.

Which end-to-end metric each layer should move, and on which workload:

* ``runtime.*`` (batch-solver self time, memo cache, fallbacks):
  ``request_p50_ms`` and ``points_per_s`` on chain_sweep;
* ``core.templates.*`` (compiles): ``setup_s`` on chain_sweep and
  tree_sweep, ``request_p90_ms`` if compiles recur after set-up;
* ``core.<backend>.*``, ``core.markov.s``, ``core.rates_s``:
  ``points_per_s`` and ``request_p50_ms``, the chain backends on
  chain_sweep and the ``tree_*`` backends on tree_sweep;
* ``transient.*``: ``request_p90_ms`` on chain_sweep;
* ``protocols.*``: ``request_p90_ms`` (scalar) and ``request_p50_ms``
  (vectorized) on sim_replay;
* ``multihop.*``: ``request_p90_ms`` on sim_replay;
* ``sim.*``: ``points_per_s`` on sim_replay;
* ``experiments.self_s``: should stay near 0 on sim_replay;
* ``trace.*``: none; they say how far the other numbers can be trusted.

A layer a workload leaves idle reports 0.  ``core.markov.s`` covers the
three public batched kernels only; the per-point sparse LU and ILU/GMRES
loops the tree templates run internally count in ``core.rates_s``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import time
from collections.abc import Callable, Iterable

#: Core solver backends: metric suffix -> ``repro.core.templates`` entry point.
CORE_BACKENDS = {
    "singlehop": "solve_singlehop_tasks",
    "chain_template": "solve_multihop_tasks",
    "chain_structured": "solve_multihop_structured_tasks",
    "het_template": "solve_heterogeneous_tasks",
    "het_structured": "solve_heterogeneous_structured_tasks",
    "gilbert_singlehop": "solve_gilbert_singlehop_tasks",
    "gilbert_multihop": "solve_gilbert_multihop_tasks",
    "tree_direct": "solve_tree_tasks",
    "tree_lumped": "solve_tree_lumped_tasks",
    "tree_iterative": "solve_tree_iterative_tasks",
}

#: Batched kernels of ``repro.core.markov``, traced where
#: ``repro.core.templates`` looks them up.
MARKOV_KERNELS = (
    "batched_stationary_dense",
    "batched_stationary_chain",
    "batched_absorption_times_dense",
)

RUNTIME_BATCHES = (
    "solve_singlehop_batch",
    "solve_multihop_batch",
    "solve_heterogeneous_batch",
    "solve_tree_batch",
    "solve_gilbert_singlehop_batch",
    "solve_gilbert_multihop_batch",
)

SIM_BATCHES = ("simulate_singlehop_batch", "simulate_faulted_multihop_batch")

Span = list  # [name, start, end, parent, request, points]


class Tracer:
    """Collects spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._request = -1

    def begin(self, name: str, points: int = 0) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request, points])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def request(self, request_id: int, call: Callable[[], object]) -> object:
        """Run ``call`` as request ``request_id`` under a request span."""
        self._request = request_id
        index = self.begin("request")
        try:
            return call()
        finally:
            self.end(index)
            self._request = -1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, points in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "request": request,
                    "points": points,
                }
                handle.write(json.dumps(record) + "\n")


def _spanned(tracer: Tracer, name: str, func: Callable, points=None) -> Callable:
    def wrapper(*args, **kwargs):
        index = tracer.begin(name, points(args, kwargs) if points else 0)
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end(index)

    return wrapper


def _compiling(tracer: Tracer, func: Callable) -> Callable:
    """Wrap an lru-cached template constructor; a cache miss is a compile."""

    def wrapper(*args, **kwargs):
        misses = func.cache_info().misses
        index = tracer.begin("core.templates.lookup")
        try:
            return func(*args, **kwargs)
        finally:
            tracer.end(index)
            if func.cache_info().misses > misses:
                tracer.spans[index][0] = "core.templates.compile"
                tracer.count("core.templates.compiles")

    return wrapper


def _counting(tracer: Tracer, name: str, func: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return func(*args, **kwargs)

    return wrapper


def _replications(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("replications", 10))


@dataclasses.dataclass
class Instrumentation:
    """The patched names; :meth:`close` restores the originals."""

    patches: list[tuple[object, str, object]]

    def close(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches = []


def instrument(tracer: Tracer) -> Instrumentation:
    """Patch every traced layer boundary to record into ``tracer``.

    A function missing from its module is skipped, so its metrics read 0.
    """
    templates = importlib.import_module("repro.core.templates")
    runtime = importlib.import_module("repro.runtime")
    simsupport = importlib.import_module("repro.experiments.simsupport")
    session = importlib.import_module("repro.protocols.session")
    vectorized = importlib.import_module("repro.protocols.vectorized")
    chain = importlib.import_module("repro.multihop.chain")
    tree = importlib.import_module("repro.multihop.tree")
    engine = importlib.import_module("repro.sim.engine")
    multihop = importlib.import_module("repro.multihop")

    def first_len(args, kwargs):
        return len(args[0])

    targets: list[tuple[object, str, Callable[[Callable], Callable]]] = []
    for suffix, entry in CORE_BACKENDS.items():
        targets.append(
            (templates, entry, lambda f, s=suffix: _spanned(tracer, f"core.{s}", f, first_len))
        )
    for kernel in MARKOV_KERNELS:
        targets.append((templates, kernel, lambda f: _spanned(tracer, "core.markov", f)))
    for name in dir(templates):
        if name.endswith("_template") and hasattr(getattr(templates, name), "cache_info"):
            targets.append((templates, name, lambda f: _compiling(tracer, f)))
    for batch in RUNTIME_BATCHES:
        targets.append((runtime, batch, lambda f: _spanned(tracer, "runtime", f)))
    targets.append(
        (runtime, "solve_transient_curve", lambda f: _spanned(tracer, "transient", f))
    )
    for batch in SIM_BATCHES:
        targets.append((simsupport, batch, lambda f: _spanned(tracer, "experiments", f)))
    targets += [
        (
            simsupport,
            "simulate_replications",
            lambda f: _spanned(tracer, "protocols.replications", f, _replications),
        ),
        (
            vectorized,
            "simulate_replications_vectorized",
            lambda f: _spanned(tracer, "protocols.vectorized", f),
        ),
        (session.SingleHopSimulation, "run", lambda f: _spanned(tracer, "protocols.scalar", f)),
        (
            simsupport,
            "simulate_multihop_replications",
            lambda f: _spanned(tracer, "multihop.harness", f),
        ),
        (
            multihop,
            "simulate_tree_replications",
            lambda f: _spanned(tracer, "multihop.harness", f),
        ),
        (chain.MultiHopSimulation, "run", lambda f: _spanned(tracer, "multihop.chain", f)),
        (tree.TreeSimulation, "run", lambda f: _spanned(tracer, "multihop.tree", f)),
        (engine.Environment, "step", lambda f: _counting(tracer, "sim.events", f)),
    ]
    patches = []
    for owner, name, wrap in targets:
        original = getattr(owner, name, None)
        if original is None:
            continue
        # Class attributes are read from the class dict so a function
        # (not a bound method) is wrapped and restored.
        if isinstance(owner, type):
            original = owner.__dict__.get(name, original)
        setattr(owner, name, wrap(original))
        patches.append((owner, name, original))
    return Instrumentation(patches)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def covered(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (span[2] - span[1]) - covered(children.get(i, ()), span[1], span[2])
        for i, span in enumerate(spans)
    ]


def _outermost(spans: list[Span]) -> list[int]:
    """Indices of spans not nested inside a span of the same name."""
    keep = []
    for index, span in enumerate(spans):
        parent = span[3]
        while parent >= 0 and spans[parent][0] != span[0]:
            parent = spans[parent][3]
        if parent < 0:
            keep.append(index)
    return keep


def layer_metrics(
    spans: list[Span],
    counters: dict[str, int],
    cache_stats: dict[str, int],
    fallbacks: int,
    untraced_s: float,
    traced_s: float,
) -> dict[str, float]:
    """Every per-layer metric, from one traced pass."""
    own = self_times(spans)
    total: dict[str, float] = {}
    selfs: dict[str, float] = {}
    points: dict[str, int] = {}
    for index in _outermost(spans):
        name = spans[index][0]
        total[name] = total.get(name, 0.0) + spans[index][2] - spans[index][1]
        points[name] = points.get(name, 0) + spans[index][5]
    for index, span in enumerate(spans):
        selfs[span[0]] = selfs.get(span[0], 0.0) + own[index]

    hits, misses = cache_stats.get("hits", 0), cache_stats.get("misses", 0)
    metrics: dict[str, float] = {
        "runtime.self_s": selfs.get("runtime", 0.0),
        "runtime.cache.hits": hits,
        "runtime.cache.misses": misses,
        "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "runtime.fallbacks": fallbacks,
        "core.templates.compiles": counters.get("core.templates.compiles", 0),
        "core.templates.compile_s": total.get("core.templates.compile", 0.0),
    }
    rates = 0.0
    for suffix in CORE_BACKENDS:
        seconds = total.get(f"core.{suffix}", 0.0)
        count = points.get(f"core.{suffix}", 0)
        metrics[f"core.{suffix}.s"] = seconds
        metrics[f"core.{suffix}.points"] = count
        metrics[f"core.{suffix}.us_per_point"] = 1e6 * seconds / count if count else 0.0
        rates += selfs.get(f"core.{suffix}", 0.0)
    metrics["core.markov.s"] = total.get("core.markov", 0.0)
    metrics["core.rates_s"] = rates
    metrics["transient.curves"] = sum(1 for span in spans if span[0] == "transient")
    metrics["transient.curve_s"] = total.get("transient", 0.0)
    metrics["protocols.replications"] = points.get("protocols.replications", 0)
    metrics["protocols.vectorized_s"] = selfs.get("protocols.vectorized", 0.0)
    metrics["protocols.scalar_s"] = total.get("protocols.scalar", 0.0)
    metrics["multihop.replications"] = sum(
        1 for span in spans if span[0] in ("multihop.chain", "multihop.tree")
    )
    metrics["multihop.chain_s"] = total.get("multihop.chain", 0.0)
    metrics["multihop.tree_s"] = total.get("multihop.tree", 0.0)
    events = counters.get("sim.events", 0)
    engine_s = (
        metrics["protocols.scalar_s"] + metrics["multihop.chain_s"] + metrics["multihop.tree_s"]
    )
    metrics["sim.events"] = events
    metrics["sim.events_per_s"] = events / engine_s if engine_s else 0.0
    metrics["experiments.self_s"] = selfs.get("experiments", 0.0)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    request_s = total.get("request", 0.0)
    metrics["trace.unaccounted_frac"] = selfs.get("request", 0.0) / request_s if request_s else 0.0
    return metrics
