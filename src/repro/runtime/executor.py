"""Process-pool sweep executor with deterministic result ordering.

``parallel_map(fn, items)`` is the single primitive everything else
builds on.  It preserves input order regardless of worker scheduling,
degrades to a plain serial loop when one worker is requested (or when
the platform cannot spawn a pool, e.g. in a sandbox), and resolves the
worker count from, in priority order:

1. the explicit ``jobs=`` argument,
2. the process-wide default set by :func:`configure` / :func:`using_jobs`
   (the CLI's ``--jobs`` flag lands here),
3. the ``REPRO_JOBS`` environment variable,
4. serial (one worker).

Worker processes run sweeps serially (the default is not inherited into
children), so nested parallelism cannot fork-bomb the machine.

The executor is failure tolerant (see ``docs/robustness.md``):

* a task that raises is retried up to ``max_retries`` times with capped
  exponential backoff, on both the serial and the pooled path;
* a pool that stops making progress for ``task_timeout`` seconds is
  torn down (hung workers are terminated) and the unfinished tasks are
  retried on a fresh pool;
* a crashed worker (``BrokenProcessPool``) likewise triggers a pool
  rebuild; after ``_MAX_POOL_REBUILDS`` rebuilds the call degrades to
  the serial path for the remaining items instead of giving up.

Every failure path re-dispatches by *input index*, so the returned list
is bit-identical to a serial, undisturbed run whenever the task
function itself is deterministic.  All events are counted in the
process-wide :class:`FailureReport` (``failure_report()``), which the
CLI prints under ``--verbose``.  The timeout and retry budget resolve
like the job count: explicit argument, then
:func:`configure_tolerance` / :func:`using_tolerance` (the CLI's
``--task-timeout`` / ``--max-retries`` flags), then the
``REPRO_TASK_TIMEOUT`` / ``REPRO_MAX_RETRIES`` environment variables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, CancelledError, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import TypeVar

__all__ = [
    "FailureReport",
    "configure",
    "configure_tolerance",
    "effective_jobs",
    "effective_max_retries",
    "effective_task_timeout",
    "failure_report",
    "parallel_map",
    "using_jobs",
    "using_tolerance",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

_ENV_JOBS = "REPRO_JOBS"
_ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
_ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"

_default_jobs: int | None = None
_default_task_timeout: float | None = None
_default_max_retries: int | None = None

#: Retry budget when nothing is configured: one initial attempt plus two
#: retries absorbs transient failures without masking persistent ones.
_DEFAULT_MAX_RETRIES = 2

#: Backoff before retry ``n`` is ``min(_BACKOFF_CAP, _BACKOFF_BASE * 2**(n-1))``
#: seconds — deterministic (no jitter), and monkeypatchable to 0 in tests.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0

#: After this many pool teardowns within one ``parallel_map`` call the
#: platform is presumed hostile to pools and the call finishes serially.
_MAX_POOL_REBUILDS = 3

_UNSET = object()


@dataclasses.dataclass
class FailureReport:
    """Process-wide counters of fault-tolerance events.

    ``timeouts``
        pool teardowns because no task completed within the timeout
        window;
    ``retries``
        task re-executions after an exception (serial and pooled);
    ``worker_crashes``
        pool teardowns because a worker process died
        (``BrokenProcessPool``);
    ``degradations``
        ``parallel_map`` calls that finished (or ran entirely) on the
        serial path because a pool could not be (re)built;
    ``solver_fallbacks``
        sparse stationary solves that were recomputed densely (see
        :func:`repro.runtime.solvers.solve_chain_stationary`).
    """

    timeouts: int = 0
    retries: int = 0
    worker_crashes: int = 0
    degradations: int = 0
    solver_fallbacks: int = 0

    @property
    def total(self) -> int:
        """Total number of recorded fault events."""
        return (
            self.timeouts
            + self.retries
            + self.worker_crashes
            + self.degradations
            + self.solver_fallbacks
        )

    def reset(self) -> None:
        """Zero every counter (tests and per-run accounting)."""
        self.timeouts = 0
        self.retries = 0
        self.worker_crashes = 0
        self.degradations = 0
        self.solver_fallbacks = 0

    def summary(self) -> str:
        """One-line rendering for ``--verbose`` output."""
        return (
            f"timeouts={self.timeouts} retries={self.retries} "
            f"worker_crashes={self.worker_crashes} "
            f"degradations={self.degradations} "
            f"solver_fallbacks={self.solver_fallbacks}"
        )


_REPORT = FailureReport()


def failure_report() -> FailureReport:
    """The process-wide fault-event counters (mutable; see ``reset``)."""
    return _REPORT


def _validate_jobs(jobs: int) -> int:
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _validate_task_timeout(task_timeout: float) -> float | None:
    task_timeout = float(task_timeout)
    if task_timeout != task_timeout or task_timeout < 0:
        raise ValueError(f"task_timeout must be >= 0 seconds, got {task_timeout}")
    # 0 (and inf) mean "no timeout", so 0 can disable an env setting.
    if task_timeout == 0 or task_timeout == float("inf"):
        return None
    return task_timeout


def _validate_max_retries(max_retries: int) -> int:
    max_retries = int(max_retries)
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    return max_retries


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware when supported)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def process_pool_usable() -> bool:
    """Whether this platform can actually run a worker pool.

    Sandboxes can forbid process spawning, in which case
    :func:`parallel_map` silently degrades to serial; callers that
    assert on parallel speedups should gate on this.
    """
    try:
        with ProcessPoolExecutor(max_workers=1) as pool:
            return list(pool.map(int, [0])) == [0]
    except Exception:  # noqa: BLE001 - any spawn failure means "no pool"
        return False


def configure(jobs: int | None) -> None:
    """Set the process-wide default worker count (``None`` resets it)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _validate_jobs(jobs)


def configure_tolerance(
    task_timeout: float | None = _UNSET,  # type: ignore[assignment]
    max_retries: int | None = _UNSET,  # type: ignore[assignment]
) -> None:
    """Set the process-wide fault-tolerance defaults.

    Arguments left at the sentinel default are not touched; passing
    ``None`` explicitly resets that knob to its environment/built-in
    default.  ``task_timeout=0`` disables the timeout outright (even
    when the environment sets one).
    """
    global _default_task_timeout, _default_max_retries
    if task_timeout is not _UNSET:
        _default_task_timeout = (
            None if task_timeout is None else float(task_timeout)
        )
        if _default_task_timeout is not None:
            _validate_task_timeout(_default_task_timeout)
    if max_retries is not _UNSET:
        _default_max_retries = (
            None if max_retries is None else _validate_max_retries(max_retries)
        )


def effective_jobs(jobs: int | None = None) -> int:
    """Resolve a ``jobs`` argument against the configured defaults."""
    if jobs is not None:
        return _validate_jobs(jobs)
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(_ENV_JOBS, "").strip()
    if env:
        try:
            return _validate_jobs(int(env))
        except ValueError:
            raise ValueError(f"invalid {_ENV_JOBS}={env!r} (need a positive integer)") from None
    return 1


def effective_task_timeout(task_timeout: float | None = None) -> float | None:
    """Resolve the per-task progress timeout (``None`` = no timeout)."""
    if task_timeout is not None:
        return _validate_task_timeout(task_timeout)
    if _default_task_timeout is not None:
        return _validate_task_timeout(_default_task_timeout)
    env = os.environ.get(_ENV_TASK_TIMEOUT, "").strip()
    if env:
        try:
            return _validate_task_timeout(float(env))
        except ValueError:
            raise ValueError(
                f"invalid {_ENV_TASK_TIMEOUT}={env!r} (need seconds >= 0)"
            ) from None
    return None


def effective_max_retries(max_retries: int | None = None) -> int:
    """Resolve the per-task retry budget (retries after the first try)."""
    if max_retries is not None:
        return _validate_max_retries(max_retries)
    if _default_max_retries is not None:
        return _default_max_retries
    env = os.environ.get(_ENV_MAX_RETRIES, "").strip()
    if env:
        try:
            return _validate_max_retries(int(env))
        except ValueError:
            raise ValueError(
                f"invalid {_ENV_MAX_RETRIES}={env!r} (need an integer >= 0)"
            ) from None
    return _DEFAULT_MAX_RETRIES


@contextlib.contextmanager
def using_jobs(jobs: int | None) -> Iterator[None]:
    """Temporarily set the default worker count (restores on exit)."""
    global _default_jobs
    previous = _default_jobs
    configure(jobs)
    try:
        yield
    finally:
        _default_jobs = previous


@contextlib.contextmanager
def using_tolerance(
    task_timeout: float | None = _UNSET,  # type: ignore[assignment]
    max_retries: int | None = _UNSET,  # type: ignore[assignment]
) -> Iterator[None]:
    """Temporarily set the fault-tolerance defaults (restores on exit)."""
    global _default_task_timeout, _default_max_retries
    previous = (_default_task_timeout, _default_max_retries)
    configure_tolerance(task_timeout, max_retries)
    try:
        yield
    finally:
        _default_task_timeout, _default_max_retries = previous


def _backoff_sleep(attempts: int) -> None:
    delay = min(_BACKOFF_CAP, _BACKOFF_BASE * 2 ** (attempts - 1))
    if delay > 0:
        time.sleep(delay)


def _call_with_retry(
    fn: Callable[[_T], _R],
    item: _T,
    max_retries: int,
    attempts: int = 0,
) -> _R:
    """Run ``fn(item)``, retrying raised exceptions up to the budget."""
    while True:
        try:
            return fn(item)
        except Exception:
            attempts += 1
            if attempts > max_retries:
                raise
            _REPORT.retries += 1
            _backoff_sleep(attempts)


class _HardenedRun:
    """One pooled ``parallel_map`` call: submit, watch, retry, rebuild.

    Results are keyed by input index, so whatever sequence of retries,
    pool rebuilds and serial degradation happens, the output order (and
    for deterministic task functions, the output values) match the
    serial path exactly.
    """

    def __init__(
        self,
        fn: Callable[[_T], _R],
        items: list[_T],
        workers: int,
        task_timeout: float | None,
        max_retries: int,
    ) -> None:
        self._fn = fn
        self._items = items
        self._workers = workers
        self._task_timeout = task_timeout
        self._max_retries = max_retries
        self._results: dict[int, _R] = {}
        self._attempts = [0] * len(items)
        self._pool: ProcessPoolExecutor | None = None
        self._spawned = False
        self._rebuilds = 0

    def run(self) -> list[_R]:
        unfinished = sorted(range(len(self._items)))
        try:
            while unfinished:
                if self._pool is None and not self._acquire_pool():
                    self._finish_serial(unfinished)
                    break
                unfinished = self._drain(unfinished)
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
        finally:
            self._discard_pool()
        return [self._results[index] for index in range(len(self._items))]

    def _acquire_pool(self) -> bool:
        if self._spawned:
            self._rebuilds += 1
            if self._rebuilds > _MAX_POOL_REBUILDS:
                _REPORT.degradations += 1
                return False
        try:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        except (OSError, PermissionError, ValueError):
            # Pool creation can fail on restricted platforms; the sweep
            # is still correct serially.
            _REPORT.degradations += 1
            return False
        self._spawned = True
        return True

    def _discard_pool(self) -> None:
        """Abandon the current pool, terminating any hung workers."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def _bump_attempts(self, index: int, exc: BaseException) -> None:
        """Charge one attempt to ``index``; re-raise once over budget."""
        self._attempts[index] += 1
        if self._attempts[index] > self._max_retries:
            self._discard_pool()
            raise exc

    def _drain(self, unfinished: list[int]) -> list[int]:
        """Run one pool generation; return the indices still unfinished."""
        remaining = set(unfinished)
        futures: dict[object, int] = {}
        try:
            for index in unfinished:
                futures[self._pool.submit(self._fn, self._items[index])] = index
        except (BrokenProcessPool, RuntimeError) as exc:
            self._note_crash(min(remaining), exc)
            return sorted(remaining)
        while futures:
            done, _ = wait(
                set(futures), timeout=self._task_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                self._note_hang(futures)
                return sorted(remaining)
            for future in done:
                index = futures.pop(future)
                try:
                    self._results[index] = future.result()
                    remaining.discard(index)
                except (BrokenProcessPool, CancelledError) as exc:
                    self._note_crash(index, exc)
                    return sorted(remaining)
                except Exception as exc:
                    self._bump_attempts(index, exc)
                    _REPORT.retries += 1
                    _backoff_sleep(self._attempts[index])
                    try:
                        futures[self._pool.submit(self._fn, self._items[index])] = index
                    except (BrokenProcessPool, RuntimeError) as submit_exc:
                        self._note_crash(index, submit_exc)
                        return sorted(remaining)
        return sorted(remaining)

    def _note_crash(self, index: int, exc: BaseException) -> None:
        """A worker (or the whole pool) died while ``index`` was in flight."""
        _REPORT.worker_crashes += 1
        self._bump_attempts(index, exc)
        self._discard_pool()

    def _note_hang(self, futures: dict[object, int]) -> None:
        """No task finished within the timeout window: the pool is stuck.

        Only *running* tasks are charged an attempt — queued tasks are
        innocent bystanders and keep their retry budget.
        """
        _REPORT.timeouts += 1
        hung = sorted(index for future, index in futures.items() if future.running())
        if not hung:
            hung = sorted(futures.values())
        for index in hung:
            self._bump_attempts(
                index,
                TimeoutError(
                    f"task {index} made no progress within "
                    f"{self._task_timeout}s (attempt {self._attempts[index] + 1})"
                ),
            )
        self._discard_pool()

    def _finish_serial(self, unfinished: list[int]) -> None:
        """Graceful degradation: run the leftover tasks in-process."""
        for index in unfinished:
            self._results[index] = _call_with_retry(
                self._fn, self._items[index], self._max_retries, self._attempts[index]
            )


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: int | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> list[_R]:
    """Apply ``fn`` to every item, in order, optionally across processes.

    Results are returned in input order regardless of worker scheduling
    and of any retries, pool rebuilds or serial degradation along the
    way, so a parallel sweep renders byte-identically to a serial one.
    ``fn`` and the items must be picklable when ``jobs > 1``; use the
    module-level task functions in :mod:`repro.runtime.solvers`.

    Tasks are dispatched per item so that timeouts, retries and pool
    rebuilds can be charged to individual inputs.
    """
    materialized = list(items)
    workers = min(effective_jobs(jobs), len(materialized))
    timeout = effective_task_timeout(task_timeout)
    retries = effective_max_retries(max_retries)
    if workers <= 1:
        return [_call_with_retry(fn, item, retries) for item in materialized]
    return _HardenedRun(fn, materialized, workers, timeout, retries).run()
