"""Memo-cached transient entry points.

The transient layer's compute functions
(:mod:`repro.transient.curves`) are pure; these wrappers give the
executor and validation plan the same content-keyed memoization the
stationary solvers get from :mod:`repro.runtime.cache`: a recovery
curve evaluated by the sweep, the invariant checks and the CLI is
propagated once per ``(protocol, parameters, timeline, grid)``.

Tasks are plain data tuples (picklable, hashable)::

    (protocol, params, topology | None, initial, faults | None, times)

where ``initial`` is ``"empty"`` or ``"stationary"``, ``faults`` is a
frozen :class:`~repro.faults.schedule.FaultSchedule` and ``times`` is
a sorted tuple of grid times.  Both entry points are registered in
:data:`repro.runtime.solvers.PARITY_CLASSES` as ``tolerance``:
uniformization truncates a Poisson series, so results agree with the
dense ``expm`` oracle to tolerance, not bit-exactly (see
``docs/transient.md``).
"""

from __future__ import annotations

from repro.core.multihop.topology import Topology
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.faults.schedule import FaultSchedule
from repro.runtime.cache import cache_key, global_cache
from repro.transient.curves import (
    TransientCurve,
    compute_transient_curve,
    compute_transient_point,
)

__all__ = [
    "solve_transient_curve",
    "solve_transient_point",
]

_MISSING = object()

TransientTask = tuple[
    Protocol,
    SignalingParameters | MultiHopParameters,
    Topology | None,
    str,
    FaultSchedule | None,
    tuple[float, ...],
]


def _task_key(kind: str, task: TransientTask):
    protocol, params, topology, initial, faults, times = task
    return cache_key(
        kind,
        protocol,
        params,
        extra=(topology, initial, faults, tuple(times)),
    )


def _memoized(key, compute):
    cache = global_cache()
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = compute()
        cache.put(key, value)
    return value


def solve_transient_curve(task: TransientTask) -> TransientCurve:
    """Consistency curve for one task tuple, memo-cached."""
    protocol, params, topology, initial, faults, times = task
    return _memoized(
        _task_key("transient_curve", task),
        lambda: compute_transient_curve(
            protocol,
            params,
            tuple(times),
            initial=initial,
            faults=faults,
            topology=topology,
        ),
    )


def solve_transient_point(task: TransientTask) -> float:
    """Consistency probability at one time, memo-cached.

    The task's ``times`` must hold exactly one grid time.
    """
    protocol, params, topology, initial, faults, times = task
    if len(times) != 1:
        raise ValueError(f"point task needs exactly one time, got {len(times)}")
    return _memoized(
        _task_key("transient_point", task),
        lambda: compute_transient_point(
            protocol,
            params,
            float(times[0]),
            initial=initial,
            faults=faults,
            topology=topology,
        ),
    )
