"""Parallel sweep execution runtime.

Every paper artifact is a parameter sweep, and the sweeps are
embarrassingly parallel: each point is an independent CTMC solve.  This
package turns those loops into data-parallel batches:

* :mod:`repro.runtime.executor` — a process-pool ``parallel_map`` with
  deterministic (input-order) results and a process-wide default job
  count (``--jobs`` on the CLI, ``REPRO_JOBS`` in the environment);
* :mod:`repro.runtime.cache` — a content-keyed memo cache so repeated
  ``(model, parameters)`` solves are computed once across figures;
* :mod:`repro.runtime.solvers` — ``solve_batch(tag, tasks)``, one
  path over a table of model families keyed by tag (``FAMILIES``) that
  combines the cache, the compiled-template fast path
  (:mod:`repro.core.templates`) and the pool; the ``solve_*_batch``
  functions bind one family's tag each.  It also holds the parity
  class of every backend entry point (``PARITY_CLASSES``).

Batch cache misses solve through compiled chain templates —
structure-cached, batched linear algebra that is bit-identical to the
per-point dense reference path — and parallel runs chunk the same
template path across workers, so serial, parallel and per-point results
all agree.
"""

from repro.runtime.cache import SolveCache, global_cache
from repro.runtime.executor import (
    FailureReport,
    configure,
    configure_tolerance,
    effective_jobs,
    effective_max_retries,
    effective_task_timeout,
    failure_report,
    parallel_map,
    using_jobs,
    using_tolerance,
)
from repro.runtime.solvers import (
    solve_batch,
    solve_chain_stationary,
    solve_gilbert_multihop_batch,
    solve_gilbert_singlehop_batch,
    solve_heterogeneous_batch,
    solve_multihop_batch,
    solve_singlehop_batch,
    solve_tree_batch,
    templates_enabled,
)
from repro.runtime.transient import solve_transient_curve, solve_transient_point

__all__ = [
    "FailureReport",
    "SolveCache",
    "configure",
    "configure_tolerance",
    "effective_jobs",
    "effective_max_retries",
    "effective_task_timeout",
    "failure_report",
    "global_cache",
    "parallel_map",
    "solve_batch",
    "solve_chain_stationary",
    "solve_gilbert_multihop_batch",
    "solve_gilbert_singlehop_batch",
    "solve_heterogeneous_batch",
    "solve_multihop_batch",
    "solve_singlehop_batch",
    "solve_transient_curve",
    "solve_transient_point",
    "solve_tree_batch",
    "templates_enabled",
    "using_jobs",
    "using_tolerance",
]
