"""Cache-aware batch solvers over one table of model families.

Each model family is one :class:`Family` row in :data:`FAMILIES`, keyed
by its tag.  :func:`solve_batch` solves any family's tasks on one path:
dedupe tasks by content key, serve repeats from
:func:`repro.runtime.cache.global_cache`, and solve the misses through
the compiled templates (:mod:`repro.core.templates`), partitioned by
backend route.  Each ``solve_*_batch`` function is that path with one
family's tag bound.  With ``jobs > 1`` the misses are split into
contiguous chunks fanned across the process pool, so parallel results
are identical to serial ones.  ``REPRO_TEMPLATES=0`` in the
environment solves misses through the per-point reference models
instead: the ground truth the fast path is parity-tested against.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import os
from collections.abc import Callable, Hashable, Iterable

from repro.core import templates as _templates
from repro.core.gilbert.model import (
    GilbertMultiHopModel,
    GilbertMultiHopSolution,
    GilbertSingleHopModel,
    GilbertSingleHopSolution,
)
from repro.core.markov import ContinuousTimeMarkovChain, State
from repro.core.multihop.heterogeneous import HeterogeneousHop
from repro.core.multihop.lumping import LumpedTreeModel, select_tree_backend
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import MAX_ENUMERATED_TREE_STATES
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel, SingleHopSolution
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime.cache import cache_key, global_cache
from repro.runtime.executor import effective_jobs, failure_report, parallel_map

__all__ = [
    "FAMILIES",
    "PARITY_CLASSES",
    "Family",
    "solve_batch",
    "solve_chain_stationary",
    "solve_gilbert_multihop_batch",
    "solve_gilbert_singlehop_batch",
    "solve_heterogeneous_batch",
    "solve_multihop_batch",
    "solve_singlehop_batch",
    "solve_tree_batch",
    "templates_enabled",
]

_LOGGER = logging.getLogger(__name__)

_MISSING = object()

#: Task shapes.  Chain and tree tasks may add a trailing backend name;
#: bare tuples mean ``"auto"`` (see :class:`Family`).
SingleHopTask = tuple[Protocol, SignalingParameters]
MultiHopTask = tuple[Protocol, MultiHopParameters] | tuple[Protocol, MultiHopParameters, str]
HeterogeneousTask = (
    tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]
    | tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...], str]
)
TreeTask = (
    tuple[Protocol, MultiHopParameters, Topology]
    | tuple[Protocol, MultiHopParameters, Topology, str]
)
GilbertSingleHopTask = tuple[Protocol, SignalingParameters, GilbertElliottParameters]
GilbertMultiHopTask = tuple[Protocol, MultiHopParameters, GilbertElliottParameters]

#: Parity class of every public backend entry point (``core/templates.py``,
#: ``core/markov.py``, ``runtime/transient.py``): ``"exact"`` paths must
#: reproduce the dense reference bit for bit, ``"tolerance"`` paths agree
#: within the bound of :mod:`repro.validation.parity`.  reprolint rule
#: RL004 holds every entry point defined there to a class declared here.
PARITY_CLASSES: dict[str, str] = {
    "solve_singlehop_tasks": "exact",
    "solve_multihop_tasks": "exact",
    "solve_heterogeneous_tasks": "exact",
    "solve_tree_tasks": "exact",
    "solve_gilbert_singlehop_tasks": "exact",
    "solve_gilbert_multihop_tasks": "exact",
    "batched_stationary_dense": "exact",
    "batched_absorption_times_dense": "exact",
    # Uniformization truncates a Poisson series, so transient curves
    # match the dense expm oracle to tolerance, never bit-exactly.
    "solve_transient_point": "tolerance",
    "solve_transient_curve": "tolerance",
    # Orbit lumping is mathematically exact (proved in rational
    # arithmetic by tests/core/test_tree_lumping.py) but aggregates
    # float additions in a different order than the direct enumeration;
    # the Krylov backend bounds a residual instead of factorizing.
    # Both therefore declare tolerance, never bit parity.
    "solve_tree_lumped_tasks": "tolerance",
    "solve_tree_iterative_tasks": "tolerance",
    # The block-Thomas chain kernel eliminates level by level, an
    # entirely different operation order than any LU factorization;
    # exact in exact arithmetic, tolerance in floats.
    "batched_stationary_chain": "tolerance",
    "solve_multihop_structured_tasks": "tolerance",
    "solve_heterogeneous_structured_tasks": "tolerance",
}

#: Above this state count a dense rescue (an O(n^2) matrix plus an
#: O(n^3) LAPACK factorization) costs more than it saves; the fallback
#: chain skips straight to the iterative backend.
DENSE_FALLBACK_MAX_STATES = 6000


def solve_chain_stationary(chain: ContinuousTimeMarkovChain) -> dict[State, float]:
    """Stationary distribution with a logged multi-stage fallback.

    The chain's configured solver (usually ``"auto"``, which picks the
    sparse backend for large chains) is tried first.  If it fails — a
    singular sparse factorization, a non-finite solution, scipy missing
    — the chain is rescued through the remaining backends: dense first
    (exact, but only up to :data:`DENSE_FALLBACK_MAX_STATES` states),
    then the ILU/GMRES iterative solver (which survives the fill-in
    explosions that kill both LU paths on big tree generators).  One
    rescue *event* increments ``solver_fallbacks`` in
    :func:`repro.runtime.executor.failure_report` exactly once, however
    many rescue backends end up being tried, and every stage is logged
    — never silent.  A failure of the configured ``"dense"`` backend is
    a genuine modeling error and propagates immediately; if every
    rescue fails, the last error propagates.
    """
    try:
        return chain.stationary_distribution()
    except (ValueError, RuntimeError) as exc:
        if chain.solver == "dense":
            raise
        error = exc
    n = len(chain.states)
    rescues = []
    if n <= DENSE_FALLBACK_MAX_STATES:
        rescues.append("dense")
    if chain.solver != "iterative":
        rescues.append("iterative")
    if not rescues:
        raise error
    failure_report().solver_fallbacks += 1
    for rescue in rescues:
        _LOGGER.warning(
            "%s stationary solve failed for a %d-state chain; %s",
            chain.solver,
            n,
            "recomputing densely" if rescue == "dense" else "retrying with the iterative backend",
        )
        try:
            return chain.with_solver(rescue).stationary_distribution()
        except (ValueError, RuntimeError) as exc:
            error = exc
    raise error


def templates_enabled() -> bool:
    """Whether batch misses go through the compiled-template fast path.

    On by default; ``REPRO_TEMPLATES=0`` (or ``off``/``false``/``no``)
    reroutes batches through the per-point reference models.
    """
    setting = os.environ.get("REPRO_TEMPLATES", "").strip().lower()
    return setting not in ("0", "off", "false", "no")


@dataclasses.dataclass(frozen=True)
class Family:
    """How one model family is keyed, routed and solved.

    A task is ``(protocol, params, *inputs)`` with ``arity`` elements;
    ``key_inputs(*inputs)`` extends its cache key and
    ``reference(route, protocol, params, *inputs)`` solves it per point.
    ``routes`` maps each backend to the *name* of the
    :mod:`repro.core.templates` entry point serving it, looked up at call
    time.  ``reference_chains[route](protocol, params, *inputs)`` builds
    the chain a reference solves: the first entry is the family's direct
    reference, which every unlisted route shares, and a route listed
    after it has a reference model of its own.  With a ``select``
    function the family is *routed*: a task may add a trailing backend
    (``"auto"`` if absent, resolved by ``select``) and the cache key
    carries the route and its parity class; ``label`` names the family
    in backend errors.
    """

    tag: str
    arity: int
    routes: dict[str, str]
    reference: Callable[..., object]
    reference_chains: dict[str, Callable[..., ContinuousTimeMarkovChain]]
    key_inputs: Callable[..., Hashable] = lambda *inputs: ()
    select: Callable[..., str] | None = None
    label: str = ""


def _chain_route(protocol: Protocol, params: MultiHopParameters, *_) -> str:
    return _templates.select_chain_backend(protocol, params.hops)


def _chain_of(model_type, *inputs) -> ContinuousTimeMarkovChain:
    return model_type(*inputs).chain()


def _chain_model(protocol, params, links=None) -> TreeModel:
    """The relay chain's reference model, ``links`` its per-hop profile."""
    return TreeModel(protocol, params, Topology.chain(params.hops), links)


#: The tree reference model of each route, the direct one first.
_TREE_MODELS = {
    "direct": TreeModel,
    "lumped": LumpedTreeModel,
    "iterative": functools.partial(
        TreeModel, max_states=MAX_ENUMERATED_TREE_STATES, solver="iterative"
    ),
}


def _tree_reference(route, protocol, params, topology) -> TreeSolution:
    model = _TREE_MODELS[route](protocol, params, topology)
    return model.solution_from_stationary(solve_chain_stationary(model.chain()))


def _gilbert_reference(model_type, route, protocol, params, gilbert):
    model = model_type(protocol, params, gilbert)
    if gilbert.is_degenerate:
        return model.solve()
    return model.solution_from_stationary(solve_chain_stationary(model.chain()))


#: The model families, by cache-key tag.  Chain references ignore the
#: route: with templates off, no chain touches the structured kernel.
FAMILIES: dict[str, Family] = {
    family.tag: family
    for family in (
        Family(
            tag="singlehop",
            arity=2,
            routes={"template": "solve_singlehop_tasks"},
            reference=lambda route, *inputs: SingleHopModel(*inputs).solve(),
            reference_chains={
                "template": lambda *inputs: SingleHopModel(*inputs).recurrent_chain()
            },
        ),
        Family(
            tag="multihop",
            arity=2,
            routes={
                "template": "solve_multihop_tasks",
                "structured": "solve_multihop_structured_tasks",
            },
            reference=lambda route, *inputs: _chain_model(*inputs).solve(),
            reference_chains={"template": functools.partial(_chain_of, _chain_model)},
            select=_chain_route,
            label="chain",
        ),
        Family(
            tag="heterogeneous",
            arity=3,
            routes={
                "template": "solve_heterogeneous_tasks",
                "structured": "solve_heterogeneous_structured_tasks",
            },
            reference=lambda route, *inputs: _chain_model(*inputs).solve(),
            reference_chains={"template": functools.partial(_chain_of, _chain_model)},
            key_inputs=lambda hops: (tuple((hop.loss_rate, hop.delay) for hop in hops),),
            select=_chain_route,
            label="chain",
        ),
        Family(
            tag="tree",
            arity=3,
            routes={
                "direct": "solve_tree_tasks",
                "lumped": "solve_tree_lumped_tasks",
                "iterative": "solve_tree_iterative_tasks",
            },
            reference=_tree_reference,
            reference_chains={
                route: functools.partial(_chain_of, model) for route, model in _TREE_MODELS.items()
            },
            key_inputs=lambda topology: (topology.parents,),
            select=lambda protocol, params, topology: select_tree_backend(topology),
            label="tree",
        ),
        Family(
            tag="gilbert-singlehop",
            arity=3,
            routes={"template": "solve_gilbert_singlehop_tasks"},
            reference=functools.partial(_gilbert_reference, GilbertSingleHopModel),
            reference_chains={"template": functools.partial(_chain_of, GilbertSingleHopModel)},
            key_inputs=lambda gilbert: gilbert,
        ),
        Family(
            tag="gilbert-multihop",
            arity=3,
            routes={"template": "solve_gilbert_multihop_tasks"},
            reference=functools.partial(_gilbert_reference, GilbertMultiHopModel),
            reference_chains={"template": functools.partial(_chain_of, GilbertMultiHopModel)},
            key_inputs=lambda gilbert: gilbert,
        ),
    )
}


def _keyed(family: Family, task: tuple) -> tuple[tuple, tuple, str]:
    """``(cache key, inputs, route)`` for one task, ``"auto"`` resolved.

    Resolving before keying makes an ``"auto"`` task share one cache
    entry with its explicit twin, while distinct routes never collide.
    """
    protocol, params, *rest = task[: family.arity]
    inputs = (Protocol(protocol), params, *rest)
    extra = family.key_inputs(*rest)
    if family.select is None:
        (route,) = family.routes
    else:
        route = task[family.arity] if len(task) > family.arity else "auto"
        if route == "auto":
            route = family.select(*inputs)
        elif route not in family.routes:
            raise ValueError(
                f"{family.label} backend must be one of {('auto', *family.routes)}, "
                f"got {route!r}"
            )
        extra += (route, PARITY_CLASSES[family.routes[route]])
    return cache_key(family.tag, protocol, params, extra), inputs, route


def _solve_chunk(job: tuple[str, list]) -> list:
    """Solve ``(family tag, [(inputs, route), ...])`` through templates.

    A pool task (the family travels by name, so only module-level
    functions pickle).  Each route's points go to its entry point at once.
    """
    tag, items = job
    routes = FAMILIES[tag].routes
    return _templates._solve_grouped(
        items,
        lambda item: item[1],
        lambda route, group: getattr(_templates, routes[route])(
            [inputs for inputs, _ in group]
        ),
    )


def _solve_reference(job: tuple[str, tuple[tuple, str]]):
    """Solve ``(family tag, (inputs, route))`` per point (a pool task)."""
    tag, (inputs, route) = job
    return FAMILIES[tag].reference(route, *inputs)


def _fan_chunks(tag: str, items: list, jobs: int | None) -> list:
    """Run :func:`_solve_chunk` over contiguous chunks, one per worker.

    One worker solves the whole list as one maximal template batch; more
    trade some batching for processes, keeping deterministic order.
    """
    workers = min(effective_jobs(jobs), len(items))
    if workers <= 1:
        return _solve_chunk((tag, items))
    bounds = [round(i * len(items) / workers) for i in range(workers + 1)]
    chunks = [(tag, items[bounds[i] : bounds[i + 1]]) for i in range(workers)]
    parts = parallel_map(_solve_chunk, chunks, jobs=workers)
    return [solution for part in parts for solution in part]


def solve_batch(tag: str, tasks: Iterable[tuple], jobs: int | None = None) -> list:
    """Solve many points of the family ``tag``; results in task order.

    ``tag`` is a :data:`FAMILIES` key and each task is
    ``(protocol, params, *inputs)`` in that family's shape (see
    :class:`Family`).
    """
    # Memoization happens once here, so batch points are neither
    # double-counted in the cache stats nor double-written to the cache.
    keyed = [_keyed(FAMILIES[tag], task) for task in tasks]
    cache = global_cache()
    resolved: dict[tuple, object] = {}
    pending: dict[tuple, tuple] = {}
    for key, inputs, route in keyed:
        if key in resolved or key in pending:
            continue
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            pending[key] = (inputs, route)
        else:
            resolved[key] = value
    if pending:
        items = list(pending.values())
        if templates_enabled():
            computed = _fan_chunks(tag, items, jobs)
        else:
            computed = parallel_map(_solve_reference, [(tag, item) for item in items], jobs=jobs)
        for key, value in zip(pending, computed):
            cache.put(key, value)
            resolved[key] = value
    return [resolved[key] for key, _, _ in keyed]


def solve_singlehop_batch(
    tasks: Iterable[SingleHopTask], jobs: int | None = None
) -> list[SingleHopSolution]:
    """Solve many single-hop points; results in task order."""
    return solve_batch("singlehop", tasks, jobs)


def solve_multihop_batch(
    tasks: Iterable[MultiHopTask], jobs: int | None = None
) -> list[TreeSolution]:
    """Solve many multi-hop points; results in task order."""
    return solve_batch("multihop", tasks, jobs)


def solve_heterogeneous_batch(
    tasks: Iterable[HeterogeneousTask], jobs: int | None = None
) -> list[TreeSolution]:
    """Solve many heterogeneous multi-hop points; results in task order."""
    return solve_batch("heterogeneous", tasks, jobs)


def solve_tree_batch(
    tasks: Iterable[TreeTask], jobs: int | None = None
) -> list[TreeSolution]:
    """Solve many tree points; results in task order."""
    return solve_batch("tree", tasks, jobs)


def solve_gilbert_singlehop_batch(
    tasks: Iterable[GilbertSingleHopTask], jobs: int | None = None
) -> list[GilbertSingleHopSolution]:
    """Solve many single-hop Gilbert-Elliott points; results in task order."""
    return solve_batch("gilbert-singlehop", tasks, jobs)


def solve_gilbert_multihop_batch(
    tasks: Iterable[GilbertMultiHopTask], jobs: int | None = None
) -> list[GilbertMultiHopSolution]:
    """Solve many multi-hop Gilbert-Elliott points; results in task order."""
    return solve_batch("gilbert-multihop", tasks, jobs)
