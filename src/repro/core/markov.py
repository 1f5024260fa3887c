"""Continuous-time Markov chain (CTMC) toolkit.

The paper's analysis rests on two standard CTMC computations, both
implemented here on top of numpy/scipy linear algebra:

* the **stationary distribution** of a recurrent chain — used for the
  inconsistency ratio (eq. 1) and the stationary message rates
  (eqs. 3-7), after the absorbing state is merged into the start state;
* the **mean time to absorption** of a transient chain — the expected
  receiver-side session length ``L`` in eq. 2.

States may be arbitrary hashable objects; the chain is specified as a
sparse mapping ``{(from_state, to_state): rate}``.

Three linear-algebra backends are provided: the dense LAPACK path (one
formulation, :func:`batched_stationary_dense` and
:func:`batched_absorption_times_dense`, which a single chain calls with
a stack of one), and a ``scipy.sparse`` LU path and an
ILU-preconditioned iterative path (GMRES, falling back to BiCGSTAB)
that both solve one :class:`SparseStationarySystem` — pinned, compiled
once per positive-rate edge pattern, and shared with the compiled
templates, which therefore match it bit for bit.  The backend is chosen
per chain via the ``solver`` argument — ``"auto"`` (the default) picks
sparse once the
state count reaches :data:`SPARSE_STATE_THRESHOLD`, keeping the small
paper chains bit-identical to the historical dense results while large
multihop/heterogeneous chains scale.  ``"iterative"`` must be requested
explicitly: its results carry Krylov truncation error (bounded by the
same residual acceptance every backend passes, see
:data:`ITERATIVE_RTOL`), so it lives in the validation suite's
*tolerance* parity class, never the bit-parity one.  Mean absorption
times always take the dense path: the one model that needs them
(:class:`~repro.core.singlehop.SingleHopModel`) solves an 8-state
transient chain.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from collections.abc import Hashable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ITERATIVE_RTOL",
    "SPARSE_STATE_THRESHOLD",
    "ContinuousTimeMarkovChain",
    "RowSolution",
    "SparseStationarySystem",
    "StateSpace",
    "batched_absorption_times_dense",
    "batched_stationary_chain",
    "batched_stationary_dense",
    "ordered_sum",
    "spec_rates",
    "spec_tags",
]

State = Hashable

#: State count at which ``solver="auto"`` switches to the sparse backend.
SPARSE_STATE_THRESHOLD = 256

#: Backward-error target handed to the Krylov solvers.  Two decades
#: tighter than the universal ``1e-8``-relative acceptance check in
#: :meth:`ContinuousTimeMarkovChain.stationary_distribution`, so an
#: iterative solve either converges well inside the contract or is
#: rejected loudly — never silently degraded.
ITERATIVE_RTOL = 1e-10

_SOLVERS = ("auto", "dense", "sparse", "iterative")


def _sparse_modules():
    """``(scipy.sparse, scipy.sparse.linalg)`` (csgraph loaded), or ``None``."""
    try:
        import scipy.sparse
        import scipy.sparse.csgraph
        import scipy.sparse.linalg
    except ImportError:
        return None
    return scipy.sparse, scipy.sparse.linalg


def spec_tags(specs: Sequence[tuple]) -> tuple:
    """The distinct tags of an ``(origin, destination, tag[, multiplicity])``
    spec list, in first-seen order."""
    return tuple(dict.fromkeys(map(operator.itemgetter(2), specs)))


def spec_rates(specs: Iterable[tuple], tag_rates) -> dict[tuple[State, State], float]:
    """The rate dict of an ``(origin, destination, tag[, multiplicity])``
    spec list.

    A spec's rate is ``tag_rates[tag]``, times its multiplicity when it
    has one.  Positive off-diagonal rates add up per state pair in spec
    order, each pair keyed where its first positive spec stands: the
    order a compiled template scatters the same specs in, so the two
    build the same floats.  Every model family builds its rate dict here.
    """
    rates: dict[tuple[State, State], float] = {}
    for spec in specs:
        origin, destination, tag = spec[0], spec[1], spec[2]
        rate = tag_rates[tag] * spec[3] if len(spec) == 4 else tag_rates[tag]
        if rate > 0.0 and origin != destination:
            key = (origin, destination)
            rates[key] = rates.get(key, 0.0) + rate
    return rates


@dataclasses.dataclass(frozen=True, eq=False)
class StateSpace:
    """A chain's states in canonical order and what its metrics read of them.

    Memoized with its enumeration, so a solution keeps just its solved
    row: every metric adds row entries, in state order, against these
    per-state tuples.  ``full`` and ``recovery`` are the positions of the
    all-consistent state and of ``RECOVERY`` (``None``: none); multi-hop
    spaces hold each state's in-flight (``fast``) and waiting (``slow``)
    frontier edge counts, raw trees its consistent-node bitmask (bit
    ``v`` for node ``v``).  A Gilbert product repeats its base's
    bitmasks once per channel slice and leaves the positions unset.
    """

    states: tuple
    full: int | None = None
    recovery: int | None = None
    fast: tuple[int, ...] = ()
    slow: tuple[int, ...] = ()
    consistent: tuple[int, ...] = ()


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``, on every interpreter
    (Python 3.12's builtin ``sum`` compensates float rounding, 3.11's
    does not), as every float sum that reaches a result is taken."""
    return functools.reduce(operator.add, values, 0.0)


class RowSolution:
    """A solution keeping its solved ``row``, the stationary mass of each
    state of its ``space`` in order; ``stationary`` maps it on first read."""

    @functools.cached_property
    def stationary(self) -> dict:
        """The stationary mass of each state."""
        return dict(zip(self.space.states, self.row))

    @property
    def message_rate(self) -> float:
        """Total stationary message rate (messages/s; per-link
        transmissions on a chain or tree)."""
        return ordered_sum(self.message_breakdown.values())


_NOT_UNIQUE = "stationary distribution is not unique or does not exist"
_ILL_CONDITIONED = "stationary distribution solve failed (ill-conditioned chain)"
_NOT_CERTAIN = "absorption is not certain from the given start state"


def _accepted(pi: np.ndarray, residual: float, scale: float) -> np.ndarray:
    """``pi`` after the acceptance test every sparse backend applies (a
    residual of ``Q^T pi = 0`` within ``1e-8 * scale``, no materially
    negative mass), clipped and renormalized once.
    :func:`batched_stationary_dense` applies the same test vectorized."""
    if residual > 1e-8 * scale or np.any(pi < -1e-9):
        raise ValueError(_ILL_CONDITIONED)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


def _closed_class_pin(n: int, rows: np.ndarray, cols: np.ndarray) -> int | None:
    """The closed-class state with the most distinct in-neighbours
    (lowest index on ties), or ``None`` unless exactly one strong
    component of the pattern is closed.  On every tree and chain this is
    the start state, whose balance row every update edge feeds; outside
    the closed class a state is transient, with mass 0."""
    sparse, _ = _sparse_modules()
    graph = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    _, labels = sparse.csgraph.connected_components(graph, connection="strong")
    closed = np.ones(labels.max() + 1, dtype=bool)
    closed[labels[rows[labels[rows] != labels[cols]]]] = False
    if np.count_nonzero(closed) != 1:
        return None
    in_degree = np.bincount(cols, minlength=n)
    return int(np.argmax(np.where(closed[labels], in_degree, -1)))


def _fill_reducing_order(m: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A symmetric ordering of an ``m``-unknown system with a full
    diagonal and off-diagonal entries at ``(rows, cols)``.

    Reverse Cuthill-McKee of the symmetrized pattern, with every unknown
    whose column holds only its diagonal ordered last.  Such a state
    (HS ``RECOVERY``, which feeds only the pinned start state) adds no
    fill when eliminated last, while its dense balance row would make it
    a hub of the symmetrized graph that flattens the RCM levels.
    """
    sparse, _ = _sparse_modules()
    last = np.bincount(cols, minlength=m) == 0
    rest = np.flatnonzero(~last)
    both = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    pattern = sparse.csr_matrix((np.ones(2 * rows.size), both), shape=(m, m))
    order = sparse.csgraph.reverse_cuthill_mckee(pattern[rest][:, rest], symmetric_mode=True)
    return np.concatenate([rest[order], np.flatnonzero(last)])


class SparseStationarySystem:
    """The sparse stationary system of one positive-rate edge pattern.

    ``rows``/``cols`` are the pattern's distinct off-diagonal edges and
    :meth:`stationary` takes their rates in that order, which fixes
    every float accumulation: equal edges and rates give bit-identical
    distributions.

    * **Pin, don't normalize.**  The state of :func:`_closed_class_pin`
      gets mass 1; its balance row and unknown drop out, leaving
      ``A x = b`` on the other states (``A`` the rest of ``Q^T``, ``b``
      minus the pin's out-rates).  No dense normalization row, and the
      densest balance row is the one dropped.  Transient states get
      exactly 0: their rows see only transient unknowns, and ``b`` is 0
      there.
    * **Symbolic work once.**  The ordering and the permuted CSC slots
      are fixed here; a solve scatters values and runs a numeric
      ``splu(..., permc_spec="NATURAL")`` or ILU/GMRES.  ``A`` is column
      diagonally dominant, so pivoting keeps the diagonal.
    """

    def __init__(self, n: int, rows: Sequence[int], cols: Sequence[int]) -> None:
        if _sparse_modules() is None:
            raise RuntimeError("scipy is required for the sparse stationary system")
        self.n = n
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.pin = _closed_class_pin(n, self.rows, self.cols)
        if self.pin is None or n == 1:
            return
        m = n - 1
        self._free = np.flatnonzero(np.arange(n) != self.pin)
        reduced = np.full(n, -1, dtype=np.intp)
        reduced[self._free] = np.arange(m)
        self._inner = np.flatnonzero((self.rows != self.pin) & (self.cols != self.pin))
        # An edge i -> j lands in j's balance row, in i's column.
        a_rows = reduced[self.cols[self._inner]]
        a_cols = reduced[self.rows[self._inner]]
        self._position = np.empty(m, dtype=np.intp)
        self._position[_fill_reducing_order(m, a_rows, a_cols)] = np.arange(m)
        entry_rows = self._position[np.concatenate([a_rows, np.arange(m)])]
        entry_cols = self._position[np.concatenate([a_cols, np.arange(m)])]
        self._order = np.lexsort((entry_rows, entry_cols))
        self._indices = entry_rows[self._order]
        self._indptr = np.concatenate(([0], np.cumsum(np.bincount(entry_cols, minlength=m))))
        self._from_pin = np.flatnonzero(self.rows == self.pin)
        self._rhs_rows = self._position[reduced[self.cols[self._from_pin]]]

    def stationary(self, values: np.ndarray, iterative: bool = False) -> np.ndarray:
        """The stationary distribution for edge rates ``values``; raises
        ``ValueError`` like the dense path when there is none, the solve
        fails or its result fails :func:`_accepted`."""
        if self.pin is None:
            raise ValueError(_NOT_UNIQUE)
        exit_rates = np.bincount(self.rows, weights=values, minlength=self.n)
        x = np.ones(self.n)
        if self.n > 1:
            sparse, _ = _sparse_modules()
            m = self.n - 1
            entries = np.concatenate([values[self._inner], -exit_rates[self._free]])
            data = entries[self._order]
            matrix = sparse.csc_matrix((data, self._indices, self._indptr), shape=(m, m))
            rhs = np.zeros(m)
            rhs[self._rhs_rows] = -values[self._from_pin]
            solve = self._iterative if iterative else self._direct
            x[self._free] = solve(matrix, rhs)[self._position]
        if not np.all(np.isfinite(x)):
            raise ValueError(_NOT_UNIQUE)
        pi = x / x.sum()
        flow = np.bincount(self.cols, weights=values * pi[self.rows], minlength=self.n)
        flow -= exit_rates * pi
        # No rate exceeds its origin's exit rate: this is max |Q|.
        scale = max(1.0, float(np.max(exit_rates)))
        return _accepted(pi, float(np.max(np.abs(flow))), scale)

    @staticmethod
    def _direct(matrix, rhs: np.ndarray) -> np.ndarray:
        _, sparse_linalg = _sparse_modules()
        try:
            return sparse_linalg.splu(matrix, permc_spec="NATURAL").solve(rhs)
        except RuntimeError as exc:
            raise ValueError(_NOT_UNIQUE) from exc

    @staticmethod
    def _iterative(matrix, rhs: np.ndarray) -> np.ndarray:
        """ILU-preconditioned GMRES (BiCGSTAB retry), then ILU refinement.

        Starts from the preconditioner's solve ``x0`` and stops at a
        backward error ``|b - A x| <= ITERATIVE_RTOL |A| |x0|``: ``|b|``
        is no yardstick when the pin's mass lies decades below the
        largest, as ``|x|`` then dwarfs ``|b| / |A|``.
        """
        _, sparse_linalg = _sparse_modules()
        try:
            ilu = sparse_linalg.spilu(
                matrix, drop_tol=1e-5, fill_factor=20.0, permc_spec="NATURAL"
            )
        except RuntimeError as exc:
            raise ValueError(_NOT_UNIQUE) from exc
        m = matrix.shape[0]
        x0 = ilu.solve(rhs)
        target = {
            "M": sparse_linalg.LinearOperator((m, m), matvec=ilu.solve),
            "rtol": 0.0,
            "atol": ITERATIVE_RTOL * float(abs(matrix).max()) * float(np.max(np.abs(x0))),
        }
        x, info = sparse_linalg.gmres(matrix, rhs, x0=x0, maxiter=500, **target)
        if info != 0:
            x, info = sparse_linalg.bicgstab(matrix, rhs, x0=x0, maxiter=2000, **target)
        if info != 0 or not np.all(np.isfinite(x)):
            raise ValueError(f"iterative stationary solve did not converge (info={info})")
        # Krylov convergence leaves errors near the 1e-8 parity bound on
        # small-magnitude metrics (1 - pi[full] cancels); each ILU
        # refinement step contracts the error by the preconditioner's
        # quality, down to the assembled system's precision floor.
        rhs_norm = float(np.max(np.abs(rhs)))
        for _ in range(3):
            defect = rhs - matrix @ x
            if float(np.max(np.abs(defect))) <= 1e-15 * rhs_norm:
                break
            refined = x + ilu.solve(defect)
            if not np.all(np.isfinite(refined)):
                break
            x = refined
        return x


class ContinuousTimeMarkovChain:
    """A finite CTMC over arbitrary hashable states.

    Parameters
    ----------
    states:
        Ordered state list; the order fixes matrix row/column indices.
    rates:
        Mapping from ``(origin, destination)`` to a non-negative
        transition rate.  Zero-rate entries are allowed and ignored.
        Self-loops are rejected (they are meaningless in a CTMC).
    solver:
        ``"dense"``, ``"sparse"``, ``"iterative"``, or ``"auto"``
        (sparse once the state count reaches
        :data:`SPARSE_STATE_THRESHOLD`, dense below it or when scipy is
        unavailable).  ``"iterative"`` (ILU-preconditioned GMRES with a
        BiCGSTAB retry) is never chosen automatically — it trades exact
        factorization for bounded-residual convergence and belongs to
        the tolerance parity class.
    """

    def __init__(
        self,
        states: Sequence[State],
        rates: Mapping[tuple[State, State], float],
        solver: str = "auto",
    ) -> None:
        if solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
        self._solver = solver
        if len(states) == 0:
            raise ValueError("a chain needs at least one state")
        if len(set(states)) != len(states):
            raise ValueError("duplicate states in state list")
        self._states: tuple[State, ...] = tuple(states)
        self._index: dict[State, int] = {s: i for i, s in enumerate(self._states)}
        self._rates: dict[tuple[State, State], float] = {}
        # Per-state total exit rate, accumulated once here so holding
        # times and generator assembly never rescan the transition map;
        # the sparse system is compiled on the first sparse solve.
        self._exit_rates: list[float] = [0.0] * len(self._states)
        self._system: SparseStationarySystem | None = None
        for (origin, destination), rate in rates.items():
            if origin not in self._index or destination not in self._index:
                raise ValueError(f"transition {origin!r}->{destination!r} uses unknown state")
            if origin == destination:
                raise ValueError(f"self-loop on {origin!r} is not allowed")
            if rate < 0 or not np.isfinite(rate):
                raise ValueError(f"invalid rate {rate!r} for {origin!r}->{destination!r}")
            if rate > 0:
                self._rates[(origin, destination)] = self._rates.get((origin, destination), 0.0) + float(rate)
                self._exit_rates[self._index[origin]] += float(rate)

    @property
    def states(self) -> tuple[State, ...]:
        """The chain's states, in index order."""
        return self._states

    @property
    def rates(self) -> dict[tuple[State, State], float]:
        """A copy of the positive transition rates."""
        return dict(self._rates)

    def rate(self, origin: State, destination: State) -> float:
        """The rate of ``origin -> destination`` (0 when absent)."""
        return self._rates.get((origin, destination), 0.0)

    @property
    def solver(self) -> str:
        """The configured backend (one of ``"auto"``, ``"dense"``,
        ``"sparse"``, ``"iterative"``)."""
        return self._solver

    def with_solver(self, solver: str) -> "ContinuousTimeMarkovChain":
        """The same chain with a different linear-algebra backend.

        Used by the runtime's solver fallback chain to recompute a
        failed sparse solve densely.
        """
        return ContinuousTimeMarkovChain(self.states, self.rates, solver=solver)

    def _use_sparse(self, n: int) -> bool:
        if self._solver == "dense":
            return False
        if self._solver in ("sparse", "iterative"):
            if _sparse_modules() is None:
                raise RuntimeError(
                    f"solver={self._solver!r} requested but scipy is unavailable"
                )
            return True
        return n >= SPARSE_STATE_THRESHOLD and _sparse_modules() is not None

    def _edges(self) -> tuple[list[int], list[int]]:
        """Origin and destination indices of the positive rates, in order."""
        return (
            [self._index[origin] for origin, _ in self._rates],
            [self._index[destination] for _, destination in self._rates],
        )

    def generator_matrix(self) -> np.ndarray:
        """The generator ``Q`` (rows sum to zero), densely materialized."""
        n = len(self._states)
        q = np.zeros((n, n))
        for (origin, destination), rate in self._rates.items():
            i, j = self._index[origin], self._index[destination]
            q[i, j] += rate
        np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
        return q

    def sparse_generator_matrix(self):
        """The generator ``Q`` as a ``scipy.sparse`` CSR matrix."""
        modules = _sparse_modules()
        if modules is None:
            raise RuntimeError("scipy is required for sparse_generator_matrix()")
        sparse, _ = modules
        n = len(self._states)
        rates = sparse.csr_matrix((list(self._rates.values()), self._edges()), shape=(n, n))
        return rates - sparse.diags(self._exit_rates)

    def stationary_distribution(self) -> dict[State, float]:
        """Solve ``pi Q = 0`` with ``sum(pi) = 1``.

        Works for chains whose recurrent class is unique; transient
        states receive probability 0.  Raises ``ValueError`` when the
        linear system is singular (e.g. several closed classes).
        """
        n = len(self._states)
        if self._use_sparse(n):
            if self._system is None:
                self._system = SparseStationarySystem(n, *self._edges())
            pi = self._system.stationary(
                np.fromiter(self._rates.values(), dtype=float, count=len(self._rates)),
                iterative=self._solver == "iterative",
            )
        else:
            pi = self._stationary_dense()
        return {state: float(pi[i]) for i, state in enumerate(self._states)}

    def _stationary_dense(self) -> np.ndarray:
        """The dense solve: :func:`batched_stationary_dense` on a stack of
        one, so the batched kernel and this path agree by construction."""
        try:
            pi, bad = batched_stationary_dense(self.generator_matrix()[None])
        except np.linalg.LinAlgError as exc:
            raise ValueError(_NOT_UNIQUE) from exc
        if bad[0]:
            raise ValueError(_ILL_CONDITIONED)
        return pi[0]

    def mean_time_to_absorption(
        self,
        start: State,
        absorbing: Sequence[State],
    ) -> float:
        """Expected time from ``start`` until any state in ``absorbing``.

        Solves ``(-Q_TT) t = 1`` on the transient block, densely whatever
        the ``solver``.  Raises ``ValueError`` when absorption is not
        certain from ``start``.
        """
        absorbing_set = set(absorbing)
        if not absorbing_set:
            raise ValueError("need at least one absorbing state")
        if start in absorbing_set:
            return 0.0
        unknown = absorbing_set - set(self._states)
        if unknown:
            raise ValueError(f"unknown absorbing states: {sorted(map(repr, unknown))}")
        transient = [s for s in self._states if s not in absorbing_set]
        t_index = {s: i for i, s in enumerate(transient)}
        if start not in t_index:
            raise ValueError(f"unknown start state {start!r}")
        times = self._absorption_times_dense(transient)
        value = float(times[t_index[start]])
        if not np.isfinite(value) or value < 0:
            raise ValueError("absorption time solve produced an invalid value")
        return value

    def _absorption_times_dense(self, transient: list[State]) -> np.ndarray:
        """:func:`batched_absorption_times_dense` on a stack of one."""
        rows = [self._index[s] for s in transient]
        q_tt = self.generator_matrix()[np.ix_(rows, rows)]
        try:
            times, bad = batched_absorption_times_dense(q_tt[None])
        except np.linalg.LinAlgError as exc:
            raise ValueError(_NOT_CERTAIN) from exc
        if bad[0]:
            raise ValueError(_NOT_CERTAIN)
        return times[0]

    def merge_states(self, merged: State, into: State) -> "ContinuousTimeMarkovChain":
        """Return a new chain where ``merged`` is collapsed into ``into``.

        Every transition entering ``merged`` is redirected to ``into``;
        transitions leaving ``merged`` are dropped.  This implements the
        paper's construction of the recurrent chain: "the absorption
        state (0,0) and the starting state (1,0)_1 are merged".
        """
        if merged == into:
            raise ValueError("cannot merge a state into itself")
        if merged not in self._index or into not in self._index:
            raise ValueError("both states must belong to the chain")
        new_states = [s for s in self._states if s != merged]
        new_rates: dict[tuple[State, State], float] = {}
        for (origin, destination), rate in self._rates.items():
            if origin == merged:
                continue
            target = into if destination == merged else destination
            if origin == target:
                continue
            new_rates[(origin, target)] = new_rates.get((origin, target), 0.0) + rate
        return ContinuousTimeMarkovChain(new_states, new_rates, solver=self._solver)

    def holding_time(self, state: State) -> float:
        """Mean sojourn time of ``state`` (inf when it has no exits)."""
        index = self._index.get(state)
        if index is None:
            return float("inf")
        total = self._exit_rates[index]
        if total == 0.0:
            return float("inf")
        return 1.0 / total

    def describe(self) -> str:
        """Human-readable transition listing (for debugging and docs)."""
        lines = [f"CTMC with {len(self._states)} states"]
        for (origin, destination), rate in sorted(
            self._rates.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        ):
            lines.append(f"  {origin!r} -> {destination!r} @ {rate:.6g}")
        return "\n".join(lines)


def batched_stationary_dense(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions of ``K`` stacked dense generators.

    ``generators`` is a ``(K, n, n)`` array of generator matrices (rows
    summing to zero).  Solves every point with one stacked LAPACK call
    (``dgesv`` per matrix).  The per-chain dense path is this kernel with
    ``K = 1``, so results are bit-identical to K separate
    :meth:`ContinuousTimeMarkovChain.stationary_distribution` calls.

    Returns ``(pi, bad)``: ``pi`` is ``(K, n)`` with each row clipped to
    non-negative and normalized to sum 1; ``bad`` is a ``(K,)`` boolean
    mask marking points whose solve failed the same residual /
    negativity acceptance test the per-chain path applies (callers
    should re-solve those through the reference path so they raise the
    reference's diagnostics).  Raises ``numpy.linalg.LinAlgError`` when
    any stacked matrix is exactly singular.
    """
    if generators.ndim != 3 or generators.shape[1] != generators.shape[2]:
        raise ValueError(f"expected (K, n, n) generators, got {generators.shape}")
    k, n, _ = generators.shape
    a = generators.transpose(0, 2, 1).copy()
    a[:, -1, :] = 1.0
    b = np.zeros((k, n, 1))
    b[:, -1, 0] = 1.0
    pi = np.linalg.solve(a, b)[..., 0]
    residual = np.abs(generators.transpose(0, 2, 1) @ pi[..., None])[..., 0].max(axis=1)
    scale = np.maximum(1.0, np.abs(generators).reshape(k, -1).max(axis=1))
    # False for a NaN, an infinity or materially negative mass.
    sound = (pi.min(axis=1) >= -1e-9) & (pi.max(axis=1) < np.inf)
    bad = (residual > 1e-8 * scale) | ~sound
    pi = np.clip(pi, 0.0, None)
    totals = pi.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    pi /= safe
    bad |= totals[:, 0] <= 0.0
    return pi, bad


def batched_stationary_chain(
    update: np.ndarray,
    advance: np.ndarray,
    lose: np.ndarray,
    recover: np.ndarray,
    timeouts: np.ndarray | None = None,
    false_signal: np.ndarray | None = None,
    recovery_return: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions of ``K`` multihop chain generators in
    O(hops) per point.

    The chain generator is block-tridiagonal in the hop levels — each
    level holds the fast state ``F_i`` and slow state ``S_i`` — plus two
    kinds of long-range "drain" edges that every state above a level
    sends below it: the update edge into ``F_0`` and either the timeout
    staircase into each ``S_j`` (SS/SS_RT) or the false-signal edge into
    RECOVERY (HS).  Because every state above the cut between levels
    ``i`` and ``i+1`` drains across it at the *same* total rate, the cut
    balance collapses the tail mass into one scalar per level and the
    block-Thomas elimination runs level by level:

    * cut balance:   ``a_i·pi(F_i) + r_i·pi(S_i) = (u + tau_{i+1})·A_i``
      where ``A_i`` is the total mass strictly above the cut and
      ``tau_c = sum_{j<c} t_j`` the accumulated timeout drain;
    * slow balance:  ``(u + r_i + tau_i)·pi(S_i) = l_i·pi(F_i) + t_i·A_i``;
    * fast balance:  ``(u + a_{i+1} + l_{i+1} + tau_{i+1})·pi(F_{i+1})
      = a_i·pi(F_i) + r_i·pi(S_i)``.

    Seeding ``pi(F_0) = 1`` and normalizing at the end makes the whole
    recursion a product of strictly positive terms — no subtractions of
    same-sign quantities ever occur (the one subtraction below is
    bounded away from cancellation because ``t_i/(u+tau_{i+1}) < 1``),
    so the kernel is unconditionally forward-stable.  It reorders
    floating-point operations relative to the LU paths, so it lives in
    the *tolerance* parity class, never the bit-parity one.

    Parameters (all vectorized over the leading ``K`` axis):

    ``update``
        ``(K,)`` — the update rate ``u`` (every non-``F_0`` state back
        to ``F_0``).
    ``advance`` / ``lose`` / ``recover``
        ``(K, n)`` — per-hop fast-path advance ``(1-l_i)/d_i``, loss
        ``l_i/d_i``, and slow-path recovery rates.
    ``timeouts``
        ``(K, n)`` — the SS-family per-destination timeout rates
        (``F_c/S_c -> S_j`` for ``j < c``).  Mutually exclusive with the
        HS pair below.
    ``false_signal`` / ``recovery_return``
        ``(K,)`` each — the HS external false-signal rate ``e`` (every
        non-RECOVERY state into RECOVERY) and the RECOVERY ``-> F_0``
        repair rate ``g`` (on top of the update edge).

    Returns ``(pi, bad)``: ``pi`` is ``(K, ns)`` over the chain's
    state order (``F_0..F_n``, ``S_0..S_{n-1}``, then RECOVERY for HS;
    ``tree_state_space`` of ``Topology.chain(n)``), each good row
    normalized to sum 1; ``bad`` marks
    points whose recursion produced non-finite values or non-positive
    mass (degenerate rates), for re-solving through a reference path.
    Raises ``ValueError`` for structurally invalid input — mismatched
    shapes, or neither/both of the SS-family and HS rate sets.
    """
    update = np.asarray(update, dtype=float)
    advance = np.asarray(advance, dtype=float)
    lose = np.asarray(lose, dtype=float)
    recover = np.asarray(recover, dtype=float)
    if update.ndim != 1:
        raise ValueError(f"update must be (K,), got shape {update.shape}")
    k = update.shape[0]
    for name, array in (("advance", advance), ("lose", lose), ("recover", recover)):
        if array.ndim != 2 or array.shape[0] != k:
            raise ValueError(
                f"{name} must be (K, n) with K={k}, got shape {array.shape}"
            )
    n = advance.shape[1]
    if n < 1:
        raise ValueError("chain kernels need at least one hop")
    if lose.shape[1] != n or recover.shape[1] != n:
        raise ValueError(
            f"advance/lose/recover disagree on hops: "
            f"{advance.shape[1]}/{lose.shape[1]}/{recover.shape[1]}"
        )
    with_recovery = false_signal is not None or recovery_return is not None
    if with_recovery == (timeouts is not None):
        raise ValueError(
            "provide either timeouts (SS family) or both false_signal and "
            "recovery_return (HS), not both or neither"
        )
    pi_fast = np.empty((k, n + 1))
    pi_slow = np.empty((k, n))
    pi_fast[:, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if with_recovery:
            if false_signal is None or recovery_return is None:
                raise ValueError(
                    "HS chains need both false_signal and recovery_return"
                )
            false_signal = np.asarray(false_signal, dtype=float)
            recovery_return = np.asarray(recovery_return, dtype=float)
            if false_signal.shape != (k,) or recovery_return.shape != (k,):
                raise ValueError(
                    f"false_signal/recovery_return must be (K,)=({k},), got "
                    f"{false_signal.shape}/{recovery_return.shape}"
                )
            for i in range(n):
                pi_slow[:, i] = (
                    lose[:, i] * pi_fast[:, i]
                    / (update + recover[:, i] + false_signal)
                )
                inflow = advance[:, i] * pi_fast[:, i] + recover[:, i] * pi_slow[:, i]
                if i + 1 < n:
                    drain = update + advance[:, i + 1] + lose[:, i + 1] + false_signal
                else:
                    drain = update + false_signal
                pi_fast[:, i + 1] = inflow / drain
            rest = pi_fast.sum(axis=1) + pi_slow.sum(axis=1)
            pi_recovery = false_signal * rest / (update + recovery_return)
            pi = np.concatenate([pi_fast, pi_slow, pi_recovery[:, None]], axis=1)
        else:
            timeouts = np.asarray(timeouts, dtype=float)
            if timeouts.shape != (k, n):
                raise ValueError(
                    f"timeouts must be (K, n)=({k}, {n}), got {timeouts.shape}"
                )
            # tau[:, c] = sum of the timeout rates below level c.
            tau = np.zeros((k, n + 1))
            np.cumsum(timeouts, axis=1, out=tau[:, 1:])
            for i in range(n):
                tail_drain = update + tau[:, i + 1]
                coupling = timeouts[:, i] / tail_drain
                pi_slow[:, i] = (
                    pi_fast[:, i]
                    * (lose[:, i] + coupling * advance[:, i])
                    / (update + recover[:, i] + tau[:, i] - coupling * recover[:, i])
                )
                inflow = advance[:, i] * pi_fast[:, i] + recover[:, i] * pi_slow[:, i]
                if i + 1 < n:
                    drain = update + advance[:, i + 1] + lose[:, i + 1] + tau[:, i + 1]
                else:
                    drain = update + tau[:, n]
                pi_fast[:, i + 1] = inflow / drain
            pi = np.concatenate([pi_fast, pi_slow], axis=1)
        bad = ~np.all(np.isfinite(pi), axis=1) | np.any(pi < 0.0, axis=1)
        pi = np.where(np.isfinite(pi), pi, 0.0)
        pi = np.clip(pi, 0.0, None)
        totals = pi.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0.0, totals, 1.0)
        pi /= safe
    bad |= ~np.isfinite(totals[:, 0]) | (totals[:, 0] <= 0.0)
    return pi, bad


def batched_absorption_times_dense(
    transient_generators: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected absorption times for ``K`` stacked transient blocks.

    ``transient_generators`` is ``(K, m, m)``: the ``Q_TT`` block of
    each point's generator (diagonals carry the *full* exit rates,
    including flows into the absorbing states).  Solves
    ``(-Q_TT) t = 1`` for every point in one stacked LAPACK call.

    Returns ``(times, bad)`` where ``times`` is ``(K, m)`` and ``bad``
    marks points with non-finite or negative entries (absorption not
    certain); callers should re-solve those via the reference path.
    """
    if (
        transient_generators.ndim != 3
        or transient_generators.shape[1] != transient_generators.shape[2]
    ):
        raise ValueError(
            f"expected (K, m, m) transient blocks, got {transient_generators.shape}"
        )
    k, m, _ = transient_generators.shape
    ones = np.ones((k, m, 1))
    times = np.linalg.solve(-transient_generators, ones)[..., 0]
    bad = ~((times.min(axis=1) >= 0.0) & (times.max(axis=1) < np.inf))
    return times, bad
