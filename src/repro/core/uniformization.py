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

The series is summed a block of terms at a time: the weights, their
running mass and the fold into the output are whole-block array
operations, and only the products ``P^T v`` are paid term by term.
Every float is the one a term-by-term loop computes: the weights use
the same elementwise expression, the mass and the output add their
terms in ``k`` order, and each step's L1 movement is a row sum, which
adds pairwise like the 1-D sum.  The first block holds one term, so a
start that is already stationary (a warmed-up recovery curve) stops
after one product.
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

#: Poisson terms per block after the first, which holds one term.
BLOCK_TERMS = 128

#: Entries of the largest ``(terms, times, states)`` slab folded into
#: the output at once: bigger slabs fall out of cache on long grids.
FOLD_ENTRIES = 16 * 1024


@dataclasses.dataclass(frozen=True)
class UniformizedTransient:
    """The kernel's output: row-per-time distributions plus diagnostics.

    ``probabilities[i]`` is the state distribution at ``times[i]`` in
    the chain's state order, clipped to ``[0, 1]`` and renormalized.
    ``iterations`` counts the power steps the series used, up to its
    exit (a block's steps past a steady-state exit are not counted);
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
    ``scipy.sparse``; cached, since the series calls it once per
    block."""
    from scipy.special import gammaln

    return gammaln


def _poisson_block(
    first: int, count: int, rate_times: np.ndarray, log_rate_times: np.ndarray
) -> np.ndarray:
    """``Poisson(Lambda t; k)`` for ``count`` terms from ``k = first``
    (rows) at every grid time (columns), in log space.

    ``rate_times`` entries of 0 get weight 1 at ``k=0`` and 0 beyond
    (the distribution at ``t=0`` is exactly the initial vector).
    """
    ks = np.arange(first, first + count, dtype=float)[:, None]
    with np.errstate(invalid="ignore"):
        weights = np.exp(ks * log_rate_times - rate_times - _gammaln()(ks + 1.0))
    weights[:, rate_times == 0.0] = ks == 0.0
    return weights


def _fold(output: np.ndarray, weights: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """``output + sum_k weights[k][:, None] * powers[k]``, added in ``k``
    order in slabs of at most :data:`FOLD_ENTRIES` entries.

    ``np.add.reduce`` adds down axis 0 of a C-ordered slab row by row,
    in sequence, because each term spans at least two states: were the
    other axes a single entry, axis 0 would be numpy's inner loop and
    be summed pairwise.
    """
    step = max(1, FOLD_ENTRIES // output.size)
    for lo in range(0, len(weights), step):
        slab = weights[lo : lo + step, :, None] * powers[lo : lo + step, None, :]
        slab[0] += output
        output = np.add.reduce(slab, axis=0) if len(slab) > 1 else slab[0]
    return output


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
    first, count = 0, 1
    while first <= cap:
        count = min(count, cap + 1 - first)
        weights = _poisson_block(first, count, rate_times, log_rate_times)
        mass = np.cumsum(np.vstack((accumulated, weights)), axis=0)[1:]
        # The series stops at the first term whose mass reaches
        # 1 - rel_tol at every grid time; no power is formed there.
        reached = np.flatnonzero(np.all(mass >= 1.0 - rel_tol, axis=1))
        terms = int(reached[0]) + 1 if reached.size else count
        steps = terms - 1 if reached.size else count
        products = [vector]
        for _ in range(steps):
            vector = operator @ vector
            products.append(vector)
        powers = np.array(products)
        movement = np.abs(powers[1:] - powers[:-1]).sum(axis=1)
        settled = np.flatnonzero(movement < steady_state_tol)
        if settled.size:
            # The power iteration reached its fixed point: every later
            # term contributes the same vector, so the whole Poisson
            # tail collapses into one closed-form update.
            terms = steps = int(settled[0]) + 1
            steady_state = True
        output = _fold(output, weights[:terms], powers[:terms])
        iterations += steps
        if steady_state:
            output += (1.0 - mass[terms - 1])[:, None] * powers[terms]
            break
        if reached.size:
            break
        accumulated = mass[-1]
        first += count
        count = BLOCK_TERMS

    output = np.clip(output, 0.0, None)
    output /= output.sum(axis=1, keepdims=True)
    return UniformizedTransient(
        times=tuple(float(t) for t in times_array),
        probabilities=output,
        iterations=iterations,
        steady_state_detected=steady_state,
        uniformization_rate=rate,
    )
