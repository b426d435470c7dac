"""LQ problem definitions: N-player games, with the single-player optimal
control problem as the case N = 1.

A problem bundles the time-dependent dynamics A(t), the per-player
coefficients B_i(t), Q_i(t), R_i(t) and terminal weights, the initial
state and the horizon, and knows how to assemble the derived matrices: the
control-weight images S_i(t) = B_i R_i^-1 B_i^T, their row and its factors
through the inputs, the stacked flow matrix and the closed-loop state
matrix.  The row and the flow matrices are vectorized ``TimeMatrix``
objects too, constant (formed once, read-only, and broadcast where
sampled) exactly when their inputs are.
``LQProblem(...)`` builds the one-player game of a control problem.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DimensionError, InputError, MisuseError, SingularityError
from .matfun import min_eigenvalue_sym, solve_checked, symmetry_defect

SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-12


@dataclass(frozen=True, eq=False, slots=True)
class TimeMatrix:
    """A time-parameterized matrix coefficient with a declared constancy flag.

    ``evaluator`` must be a pure function of t returning an array of shape
    ``dims`` for every t in the problem horizon; a ``vectorized`` evaluator
    instead maps an array of k times to the (k, *dims) stack, so a chunk of
    nodes is sampled in one call.  When ``constant`` is true the value of
    the first call is frozen, as a read-only copy, and broadcast over the
    nodes; ``GameProblem`` checks it against the evaluator on its horizon.
    """

    evaluator: Callable
    dims: tuple[int, int]
    constant: bool = False
    vectorized: bool = False
    _frozen_value: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_constant(cls, value):
        value = _read_only(np.array(value, dtype=float, ndmin=2))
        if not np.all(np.isfinite(value)):
            raise InputError("constant coefficient has non-finite entries")
        return cls(evaluator=lambda t: value, dims=value.shape, constant=True,
                   _frozen_value=value)

    @classmethod
    def from_function(cls, fn, dims, vectorized=False):
        return cls(evaluator=fn, dims=tuple(dims), constant=False, vectorized=vectorized)

    def _evaluate(self, t):
        value = self.evaluator(np.array([t]))[0] if self.vectorized else self.evaluator(t)
        value = np.atleast_2d(np.asarray(value, dtype=float))
        if value.shape != self.dims:
            raise DimensionError(
                f"evaluator returned shape {value.shape}, declared {self.dims}"
            )
        return value

    def __call__(self, t):
        if self._frozen_value is not None:
            return self._frozen_value
        value = self._evaluate(t)
        if self.constant:
            value = _read_only(value.copy())
            object.__setattr__(self, "_frozen_value", value)
        return value


def _read_only(M):
    M.setflags(write=False)
    return M


def _check_weight(name, tm, t_samples, positive_definite=False):
    for t, W in zip(t_samples, _sample(tm, t_samples)):
        try:  # one scan: finite, and symmetric to SYMMETRY_TOL * max(1, |W|)
            lam = min_eigenvalue_sym(W, tol=SYMMETRY_TOL)
        except InputError as exc:
            raise InputError(f"{name}({t}): {exc}") from None
        if positive_definite and lam <= 0.0:
            raise InputError(f"{name}({t}) is not positive definite (min eig {lam:.3e})")
        if not positive_definite and lam < -PSD_TOL:
            raise InputError(f"{name}({t}) is not PSD (min eig {lam:.3e})")


@dataclass(frozen=True, eq=False)
class GameProblem:
    """Dynamics and per-player costs of an N-player LQ differential game.

    x' = A(t) x + sum_i B_i(t) u_i on [t0, T].  ``B[i]``, ``R[i]`` (self
    weights, SPD), ``Q[i]`` (PSD) and ``QT[i]`` describe player i.
    ``cross_R`` holds the zero-sum cross weights as a mapping
    (i, j) -> TimeMatrix for i != j; leaving it empty selects the
    non-zero-sum mode in which each cost ignores the other controls.
    """

    A: TimeMatrix
    B: tuple
    R: tuple
    Q: tuple
    QT: tuple
    x0: np.ndarray
    t0: float = 0.0
    T: float = 1.0
    cross_R: dict | None = None

    def __post_init__(self):
        n = self.A.dims[0]
        if self.A.dims != (n, n) or n == 0:
            raise DimensionError(f"A must be square and non-empty, got {self.A.dims}")
        N = len(self.B)
        if not (len(self.R) == len(self.Q) == len(self.QT) == N) or N == 0:
            raise DimensionError("need at least one player and equal-length per-player tuples")
        # private read-only copies, so the caller's arrays cannot change them
        object.__setattr__(self, "QT", tuple(_read_only(np.array(Z, dtype=float, ndmin=2))
                                             for Z in self.QT))
        object.__setattr__(self, "x0", _read_only(np.array(self.x0, dtype=float, ndmin=1)))
        if self.x0.shape != (n,):
            raise DimensionError("x0 must have length n")
        if not np.isfinite(self.x0).all():
            raise InputError("x0 contains non-finite entries")
        if not np.isfinite([self.t0, self.T, float(self.T) - float(self.t0)]).all():
            raise InputError(f"horizon [{self.t0}, {self.T}] and its length must be finite")
        if not self.t0 < self.T:
            raise InputError(f"need t0 < T, got [{self.t0}, {self.T}]")
        samples = np.linspace(self.t0, self.T, 5)
        for i in range(N):
            ri = self.B[i].dims[1]
            if self.B[i].dims[0] != n or ri == 0:
                raise DimensionError(f"B[{i}] must be {n} x r, r >= 1, got {self.B[i].dims}")
            if self.R[i].dims != (ri, ri):
                raise DimensionError(f"R[{i}] must be {ri} x {ri}")
            if self.Q[i].dims != (n, n) or self.QT[i].shape != (n, n):
                raise DimensionError(f"Q[{i}] and QT[{i}] must be {n} x {n}")
            _check_weight(f"Q[{i}]", self.Q[i], samples)
            _check_weight(f"R[{i}]", self.R[i], samples, positive_definite=True)
            if (symmetry_defect(self.QT[i]) > SYMMETRY_TOL
                    or min_eigenvalue_sym(self.QT[i]) < -PSD_TOL):
                raise InputError(f"QT[{i}] must be symmetric PSD")
        if self.cross_R is not None:
            if N != 2:
                raise InputError("zero-sum mode requires exactly two players")
            for key in ((1, 2), (2, 1)):
                if key not in self.cross_R:
                    raise InputError(f"zero-sum mode needs cross weight R_{key}")
        for name, tm in self._named():  # a declared constant must hold on the horizon
            if tm.constant and any(not np.array_equal(tm._evaluate(t), tm(t))
                                   for t in samples):
                raise InputError(f"{name} declared constant but varies on [{self.t0}, {self.T}]")

    def _named(self):
        named = [("A", self.A)] + [(f"{k}[{i}]", tm) for k in ("B", "R", "Q")
                                   for i, tm in enumerate(getattr(self, k))]
        return named + [(f"cross_R{k}", tm) for k, tm in (self.cross_R or {}).items()]

    @property
    def n(self):
        return self.A.dims[0]

    @property
    def nplayers(self):
        return len(self.B)

    @property
    def zero_sum(self):
        return self.cross_R is not None

    @cached_property
    def is_autonomous(self):
        return all(tm.constant for _, tm in self._named())

    def coupling_at(self, t):
        """(S_1(t), ..., S_N(t)) with S_i = B_i R_i^-1 B_i^T, symmetrized."""
        return tuple(self.coupling_row(t).reshape(self.n, self.nplayers, -1).swapaxes(0, 1))

    def coupling_row(self, t):
        """[S_1(t) ... S_N(t)], the row the closed loop multiplies."""
        return self._row(t)

    def coupling_factor(self, t):
        """(B~(t), F(t)): B~ = [B_1 ... B_N] (n x sum r_i) and F =
        blockdiag(W_1 B_1^T, ..., W_N B_N^T) (sum r_i x Nn), W_i the
        symmetric part of R_i^-1, so that B~ F is the row [S_1 ... S_N] with
        each S_i symmetrized as coupling_row forms it."""
        B, n = [Bi(t) for Bi in self.B], self.n
        F, r = np.zeros((sum(Bi.shape[1] for Bi in B), self.nplayers * n)), 0
        for i, Bi in enumerate(B):
            W = _solve_weight(self.R[i](t)[None], np.eye(Bi.shape[1])[None], i, [t])[0]
            F[r:r + Bi.shape[1], i * n:(i + 1) * n] = 0.5 * (W + W.T) @ Bi.T
            r += Bi.shape[1]
        return np.hstack(B), F

    def closed_loop_terms(self, times):
        """A and the row [S_1 ... S_N] of the closed loop A - S_row V U^-1 at
        each of ``times``, stacked; each coefficient sampled once per call."""
        return _sample(self.A, times), _sample(self._row, times)

    def flow_matrix(self, t):
        """The (N+1)n x (N+1)n matrix K(t) of the stacked linear flow."""
        return self.flow_matrices([t])[0]

    def flow_matrices(self, times):
        """K at each of ``times``, stacked over a leading node axis.  Every
        coefficient is sampled once per call.  A zero-sum game has no linear
        flow, so every linear pipeline stops here for it."""
        if self.zero_sum:
            raise MisuseError("a zero-sum game has no linear Riccati flow; "
                              "solve it with solve_zero_sum")
        return _sample(self._flow, times)

    def zero_sum_terms(self, t):
        """(K0, S22, S11) of a zero-sum game at t: the stacked flow matrix
        with no coupling, and the cross couplings S22 = B_2 R_12^-1 B_2^T,
        S11 = B_1 R_21^-1 B_1^T, as views of the coupling stack
        C = [[S1, S2], [0, S22], [S11, 0], [S1, S2]]: for y = (P1, P2),
        C [V1; V2] = [G; S22 V2; S11 V1; G] with G = S1 V1 + S2 V2."""
        n, (K0, C) = self.n, self._zero_sum
        C = C(t)
        return K0(t), C[n:2 * n, n:], C[2 * n:3 * n, :n]

    # The derived matrices, each listed with every coefficient it reads.
    @cached_property
    def _row(self):
        return _derived(self._form_row, (self.n, self.nplayers * self.n), *self.B, *self.R)

    @cached_property
    def _flow(self):
        return _derived(lambda ts: self._assemble(ts, _sample(self._row, ts)),
                        ((self.nplayers + 1) * self.n,) * 2, self.A, self._row, *self.Q)

    @cached_property
    def _zero_sum(self):
        # K0 and the coupling stack C of zero_sum_terms
        n, W12, W21 = self.n, self.cross_R[(1, 2)], self.cross_R[(2, 1)]
        def stack(ts):
            row, zero = _sample(self._row, ts), np.zeros((len(ts), n, n))
            return np.block([[row], [zero, self._coupling(1, W12, ts)],
                             [self._coupling(0, W21, ts), zero], [row]])
        return (_derived(lambda ts: self._assemble(ts, 0.0), (3 * n, 3 * n), self.A, *self.Q),
                _derived(stack, (4 * n, 2 * n), self._row, W12, W21))

    def _assemble(self, times, S_row):
        return assemble_flow_matrix(self.n, _sample(self.A, times), S_row,
                                    [_sample(Q, times) for Q in self.Q])

    def _form_row(self, times):
        # [S_1 ... S_N] at each node of ``times``.  A singular R is reported
        # at its first node in the order of ``times``, for the first player
        # singular there.
        S, failed = [], []
        for i in range(self.nplayers):
            try:
                S.append(self._coupling(i, self.R[i], times))
            except SingularityError as exc:
                failed.append(exc)
        if failed:
            raise min(failed, key=lambda exc: list(times).index(exc.where))
        return np.concatenate(S, axis=-1)

    def feedback_controls(self, times, gains, states):
        """Each player's controls u_i = -R_i^-1 B_i^T P_i x at ``times``, from
        P_i = ``gains[k][i]`` and x = ``states[k]``, in one stacked solve."""
        Px = np.asarray(gains) @ np.asarray(states)[:, None, :, None]
        return [-_solve_weight(_sample(self.R[i], times),
                               _sample(self.B[i], times).swapaxes(-1, -2) @ Px[:, i],
                               i, times)[..., 0]
                for i in range(self.nplayers)]

    def _coupling(self, j, W, times):
        # B_j W^-1 B_j^T at each node of ``times``, stacked, for player j's
        # control under the weight W: the player's own R_j, or a zero-sum
        # cross weight.
        B = _sample(self.B[j], times)
        S = B @ _solve_weight(_sample(W, times), B.swapaxes(-1, -2), j, times)
        return 0.5 * (S + S.swapaxes(-1, -2))


def _sample(tm, times):
    # tm at each node of ``times``, stacked over a leading node axis: a constant
    # broadcast (read-only), a vectorized evaluator in one call, else one per node
    if tm.constant:
        M = tm(times[0])
        return M[None] if len(times) == 1 else np.broadcast_to(M, (len(times),) + M.shape)
    if not tm.vectorized:
        return np.array([tm(t) for t in times])
    M = np.asarray(tm.evaluator(np.asarray(times, dtype=float)), dtype=float)
    if M.shape != (len(times),) + tm.dims:
        raise DimensionError(f"vectorized evaluator returned shape {M.shape} "
                             f"for {len(times)} times, declared {tm.dims}")
    return M


def _derived(make, dims, *inputs):
    # The vectorized TimeMatrix ``make`` of a matrix derived from the
    # TimeMatrix ``inputs``: constant (formed once, then broadcast) when they are
    return TimeMatrix(make, dims, vectorized=True, constant=all(tm.constant for tm in inputs))


def _solve_weight(R, rhs, player, times):
    # R^-1 rhs at each node of ``times``, R and rhs stacked over the nodes;
    # a singular R names the player and its first singular node.
    if R.shape[-1] == 1:
        if np.count_nonzero(R) == R.size:
            return rhs / R
        t = times[np.flatnonzero(R == 0.0)[0]]
        raise SingularityError(f"R of player {player + 1} singular at t = {t}", where=t)
    try:
        return solve_checked(R, rhs, where=times)
    except SingularityError as exc:
        t = exc.where
        raise SingularityError(f"R of player {player + 1} singular at t = {t}: {exc}",
                               where=t) from exc


def LQProblem(A, B, Q, R, QT, x0, t0=0.0, T=1.0):
    """A finite-horizon LQ optimal control problem, as a one-player game.

    x' = A(t) x + B(t) u on [t0, T], quadratic running cost with state
    weight Q(t) (PSD) and control weight R(t) (SPD), terminal weight QT.
    """
    return GameProblem(A=A, B=(B,), R=(R,), Q=(Q,), QT=(QT,), x0=x0, t0=t0, T=T)


def s_matrix(prob, t):
    """S(t) = B(t) R(t)^-1 B(t)^T of the first (for a control problem, the
    only) player, symmetrized on output."""
    return prob.coupling_at(t)[0]


def hamiltonian_matrix(prob, t):
    """The flow matrix [[A, -S_1 .. -S_N], [-Q_i, -A^T diagonal]] of the
    linearized Riccati equations; [[A, -S], [-Q, -A^T]] for one player."""
    return prob.flow_matrix(t)


def assemble_flow_matrix(n, A, S_row, Q_list):
    """Stack [[A, -S_1 .. -S_N], [-Q_i down, -A^T diagonal]] from the row
    [S_1 .. S_N], at one node or over a leading node axis shared by the blocks."""
    N = len(Q_list)
    K = np.zeros(A.shape[:-2] + ((N + 1) * n, (N + 1) * n))
    K[..., :n, :n] = A
    K[..., :n, n:] = -S_row
    for i in range(N):
        K[..., n * (1 + i): n * (2 + i), :n] = -Q_list[i]
        K[..., n * (1 + i): n * (2 + i), n * (1 + i): n * (2 + i)] = -A.swapaxes(-1, -2)
    return K


def closed_loop_matrix(prob, t, P):
    """A(t) - S(t) P, the state matrix under optimal feedback."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    if P.shape != (prob.n, prob.n):
        raise DimensionError(f"P must be {prob.n} x {prob.n}, got {P.shape}")
    return prob.A(t) - s_matrix(prob, t) @ P
