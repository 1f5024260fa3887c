"""Uniformization: transient CTMC distributions without ``expm``.

Uniformization (Jensen's method) rewrites the transient solution of a
CTMC with generator ``Q`` as a Poisson-weighted power series of the
discrete-time operator ``P = I + Q / Lambda``:

.. math::

   \\pi(t) = \\sum_{k \\ge 0} e^{-\\Lambda t}
             \\frac{(\\Lambda t)^k}{k!} \\; \\pi(0) P^k

where ``Lambda`` is any rate no smaller than the largest exit rate, so
``P`` is a proper stochastic matrix.  Two properties make this the
right engine for recovery curves:

* **one pass covers a whole time grid** — the vectors ``pi(0) P^k``
  are shared by every ``t``; only the Poisson weights differ, so a
  curve over ``|times|`` points costs one power iteration, not
  ``|times|`` matrix exponentials;
* **it never materializes** ``expm(Q t)`` — the iteration is plain
  vector-matrix products, so it runs on the sparse CSR generator
  above :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states.

The truncation point adapts to the grid: the series stops once the
accumulated Poisson mass reaches ``1 - rel_tol`` for every requested
time.  Independently, a **steady-state detector** watches the power
iteration itself: once ``pi(0) P^k`` stops moving (L1 change below
``steady_state_tol``), every remaining term equals the fixed point, so
the unaccumulated tail mass is assigned in closed form and the
iteration exits early — the largest win on grids whose horizon spans
many mixing times.

Poisson weights are evaluated in log space
(``exp(k ln(Lambda t) - Lambda t - ln k!)``) so large ``Lambda t``
never underflows the leading terms.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Sequence

import numpy as np

from repro.core.markov import (
    SPARSE_STATE_THRESHOLD,
    ContinuousTimeMarkovChain,
    _sparse_modules,
)

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_STEADY_STATE_TOL",
    "UniformizedTransient",
    "uniformized_transient",
]

#: Poisson tail mass left untruncated by default (per grid time).
DEFAULT_REL_TOL = 1e-12

#: L1 movement of ``pi(0) P^k`` below which the power iteration is
#: declared stationary and the remaining tail assigned in closed form.
DEFAULT_STEADY_STATE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class UniformizedTransient:
    """The kernel's output: row-per-time distributions plus diagnostics.

    ``probabilities[i]`` is the state distribution at ``times[i]`` in
    the chain's state order, clipped to ``[0, 1]`` and renormalized.
    ``iterations`` counts the powers of ``P`` actually formed;
    ``steady_state_detected`` records whether the early exit fired.
    """

    times: tuple[float, ...]
    probabilities: np.ndarray
    iterations: int
    steady_state_detected: bool
    uniformization_rate: float


@functools.cache
def _gammaln():
    """``scipy.special.gammaln``, loaded on the first transient curve
    rather than with the program, as :func:`_sparse_modules` loads
    ``scipy.sparse``; cached, since the power iteration calls it once
    per term."""
    from scipy.special import gammaln

    return gammaln


def _poisson_weights(k: int, rate_times: np.ndarray, log_rate_times: np.ndarray) -> np.ndarray:
    """``Poisson(Lambda t; k)`` for every grid time, in log space.

    ``rate_times`` entries of 0 get weight 1 at ``k=0`` and 0 beyond
    (the distribution at ``t=0`` is exactly the initial vector).
    """
    positive = rate_times > 0.0
    weights = np.zeros_like(rate_times)
    if k == 0:
        weights[~positive] = 1.0
    weights[positive] = np.exp(
        k * log_rate_times[positive] - rate_times[positive] - _gammaln()(k + 1)
    )
    return weights


def _transition_operator(chain: ContinuousTimeMarkovChain, rate: float):
    """``P^T = (I + Q/Lambda)^T`` as a dense array or CSR matrix.

    The transpose lets the power iteration run as ``P^T v`` (a plain
    matrix-vector product) instead of the row-vector form ``v P``.
    """
    n = len(chain.states)
    sparse = n >= SPARSE_STATE_THRESHOLD and _sparse_modules() is not None
    if sparse:
        sparse_mod, _ = _sparse_modules()
        q = chain.sparse_generator_matrix()
        operator = (sparse_mod.identity(n, format="csr") + q / rate).transpose()
        return operator.tocsr()
    return (np.eye(n) + chain.generator_matrix() / rate).T


def uniformized_transient(
    chain: ContinuousTimeMarkovChain,
    initial: np.ndarray,
    times: Sequence[float],
    rel_tol: float = DEFAULT_REL_TOL,
    steady_state_tol: float = DEFAULT_STEADY_STATE_TOL,
) -> UniformizedTransient:
    """Transient distributions of ``chain`` on a whole time grid.

    ``initial`` is a probability vector over ``chain.states`` (summing
    to 1).  Returns one distribution row per entry of ``times``; the
    grid need not be sorted and may repeat values.
    """
    n = len(chain.states)
    initial = np.asarray(initial, dtype=float)
    if initial.shape != (n,):
        raise ValueError(
            f"initial distribution has shape {initial.shape}, expected ({n},)"
        )
    if np.any(initial < 0) or not math.isclose(float(initial.sum()), 1.0, abs_tol=1e-9):
        raise ValueError("initial must be a probability distribution over the states")
    times_array = np.asarray(list(times), dtype=float)
    if times_array.size and (np.any(times_array < 0) or not np.all(np.isfinite(times_array))):
        raise ValueError("times must be finite and non-negative")
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must be in (0, 1), got {rel_tol}")

    rate = max(chain._exit_rates, default=0.0)
    if times_array.size == 0:
        return UniformizedTransient(
            times=(),
            probabilities=np.zeros((0, n)),
            iterations=0,
            steady_state_detected=False,
            uniformization_rate=rate,
        )
    if rate == 0.0:
        # No transitions anywhere: the distribution never moves.
        return UniformizedTransient(
            times=tuple(float(t) for t in times_array),
            probabilities=np.tile(initial, (times_array.size, 1)),
            iterations=0,
            steady_state_detected=True,
            uniformization_rate=rate,
        )

    operator = _transition_operator(chain, rate)
    rate_times = rate * times_array
    with np.errstate(divide="ignore"):
        log_rate_times = np.log(rate_times)

    output = np.zeros((times_array.size, n))
    accumulated = np.zeros(times_array.size)
    # Truncation backstop: the Poisson mass criterion fires well inside
    # Lambda*t_max + O(sqrt(Lambda*t_max)) terms; the cap only guards
    # against a misconfigured tolerance spinning forever.
    max_rate_time = float(rate_times.max())
    cap = int(max_rate_time + 12.0 * math.sqrt(max_rate_time + 1.0) + 64.0)

    vector = initial
    iterations = 0
    steady_state = False
    for k in range(cap + 1):
        weights = _poisson_weights(k, rate_times, log_rate_times)
        output += weights[:, None] * vector
        accumulated += weights
        if np.all(accumulated >= 1.0 - rel_tol):
            break
        advanced = operator @ vector
        iterations += 1
        if float(np.abs(advanced - vector).sum()) < steady_state_tol:
            # The power iteration reached its fixed point: every later
            # term contributes the same vector, so the whole Poisson
            # tail collapses into one closed-form update.
            output += (1.0 - accumulated)[:, None] * advanced
            accumulated[:] = 1.0
            steady_state = True
            break
        vector = advanced

    output = np.clip(output, 0.0, None)
    output /= output.sum(axis=1, keepdims=True)
    return UniformizedTransient(
        times=tuple(float(t) for t in times_array),
        probabilities=output,
        iterations=iterations,
        steady_state_detected=steady_state,
        uniformization_rate=rate,
    )
