"""Linearized Riccati flow: backward integration, gain map and feedback law.

The N coupled Riccati equations
P_i' = -Q_i - A^T P_i - P_i A + P_i (S_1 P_1 + ... + S_N P_N) are solved
through the linear system y' = K(t) y on the stacked blocks
y = [U; V_1; ...; V_N], with P_i = V_i U^-1 and final condition
y(T) = [I; QT_1; ...; QT_N].  A single-player problem is the case N = 1.
The backward pass (backward_game) gives the flow at t0, keeping one chunk of
CF4 steps and, on its ladder, up to four gain arrays and three flows; the
forward engines live in :mod:`splitlq.splitting`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MisuseError, SingularityError, check_steps
from .magnus import LinearFlowProblem, cf4_chunks, cf4_ladder
from .matfun import expm_apply, first_singular, symmetry_defect

BACKWARD_AGREEMENT = 1e-12  # relative, on the gains P(t0): the default pass's accuracy


@dataclass(frozen=True)
class GameFlow:
    """Snapshot (U, V_1..V_N) of the stacked linear flow at time t."""

    U: np.ndarray
    V: tuple
    t: float

    def stacked(self):
        return np.vstack([self.U, *self.V])

    @classmethod
    def from_stacked(cls, y, t):
        n = y.shape[1]
        return cls(U=y[:n], V=tuple(y[k: k + n] for k in range(n, len(y), n)), t=t)

    def gains(self):
        """[P_1, ..., P_N] with P_j = V_j U^-1 (raw, not symmetrized), from
        one solve with U for all players."""
        P, n = _gain_raw(self.U, np.vstack(self.V), self.t), len(self.U)
        return [P[k: k + n] for k in range(0, len(P), n)]


def RiccatiFlow(U, V, t):
    """The one-player flow (U, V) at time t."""
    return GameFlow(U=U, V=(V,), t=t)


def check_nonsingular(U, t):
    """Abort when 1/cond(U) < RCOND_FLOOR: P = V U^-1 is no longer meaningful."""
    _check_steps(np.asarray(U)[None], [t])


def _check_steps(U, times):
    # check_nonsingular over a stack of U, one per time of ``times``, in one
    # batched rcond; the first failing time is reported.
    hit = first_singular(U)
    if hit is not None:
        k, r = hit
        raise SingularityError(
            f"U(t) numerically singular at t = {times[k]} (1/cond = {r:.3e})",
            where=times[k])


def _gain_raw(U, V, t):
    if U.shape == (1, 1):
        if U[0, 0] == 0.0:
            raise SingularityError(f"U(t) singular at t = {t}", where=t)
        return V / U[0, 0]
    try:
        return np.linalg.solve(U.T, V.T).T
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"U(t) singular at t = {t}", where=t) from exc


def closed_loop(A, S_row, y, t):
    """A - sum_j S_j V_j U^-1 as A - (S_row V_stack) U^-1, for the stacked
    y = [U; V_stack] and S_row = [S_1 ... S_N]: one solve for all players."""
    n = A.shape[0]
    return A - _gain_raw(y[:n], S_row @ y[n:], t)


def right_solve(W, U, times):
    """W_k U_k^-1 for each member of the stacks W (k, p, n) and U (k, n, n),
    from one batched U solve (a division for n = 1).  A singular U raises
    SingularityError naming the first failing time of ``times``, as
    _gain_raw would there."""
    try:
        if U.shape[-1] > 1:  # contiguous transposes: the same bits, and LAPACK reads them faster
            Ut, Wt = (np.ascontiguousarray(M.swapaxes(-1, -2)) for M in (U, W))
            return np.linalg.solve(Ut, Wt).swapaxes(-1, -2)
        if U.all():
            return W / U
    except np.linalg.LinAlgError:
        pass
    # member by member, the same solves: the first singular U raises
    return np.array([_gain_raw(U[k], W[k], times[k]) for k in range(len(U))])


def closed_loops(A, S_row, Y, times, B=None):
    """closed_loop at each member of the stacks A (k, n, n), S_row
    (k, n, Nn) and Y (k, (N+1)n, n), from one right_solve; a matrix that
    every member shares may come as one (1, ...) layer.  With S_row None,
    Y is the stack (k, 2n, n) of [U; W] with W = S_row V_stack formed.
    B (k, n, r), when given, is the left factor of the row S_row = B F
    (problem.coupling_factor): S_row then stands for F (r, Nn) and W for
    F V_stack, and the loop is A - B (W U^-1), a solve for r rows, not n."""
    n = A.shape[-1]
    W = Y[:, n:] if S_row is None else S_row @ Y[:, n:]
    G = right_solve(W, Y[:, :n], times)
    if B is None:
        return A - G
    BG = B @ G
    return np.subtract(A, BG, out=BG)


def terminal_game_flow(game):
    """The final condition y(T) = [I; QT_1; ...; QT_N]."""
    return GameFlow(U=np.eye(game.n), V=tuple(Z.copy() for Z in game.QT), t=game.T)


def backward_game(game, steps=None):
    """The backward pass: the flow at t0 of the stacked linear system.
    Constant coefficients: exp((t0 - T) K) y(T).  Time-dependent ones: ``steps``
    plain CF4 steps (backward_nonautonomous) when given, else the CF4 ladder's
    order-8 extrapolant, judged by the gains P(t0) to BACKWARD_AGREEMENT, or at its
    cap the plain BACKWARD_STEPS-step flow, which need not meet BACKWARD_AGREEMENT
    (1.3e-10 off on a rate-2000 drift ramp).  U is checked at t0 and after every step."""
    if not game.is_autonomous:
        if steps is not None:
            return backward_nonautonomous(game, steps)
        y = cf4_ladder(lambda s: backward_nonautonomous(game, s).stacked(),
                       lambda y: GameFlow.from_stacked(y, game.t0).gains(),
                       BACKWARD_AGREEMENT)[1]
        return GameFlow.from_stacked(y, game.t0)
    K = game.flow_matrix(game.t0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite E or U fails a check
        y = expm_apply((game.t0 - game.T) * K, terminal_game_flow(game).stacked())
    flow = GameFlow.from_stacked(y, game.t0)
    check_nonsingular(flow.U, game.t0)
    return flow


def backward_autonomous(prob):
    """(U0, V0) = exp((t0 - T) K) [I; QT] for constant coefficients."""
    if not prob.is_autonomous:
        raise MisuseError(
            "coefficients are time dependent; use backward_nonautonomous"
        )
    return backward_game(prob)


def backward_nonautonomous(prob, steps):
    """Integrate y' = K(t) y from T down to t0 with uniform CF4 steps.

    Runs CF4 whether or not the coefficients are constant.  U is
    condition-checked after every step, in one batched check per chunk of
    steps; a singular U raises with the first failing time.  No
    intermediate results are kept beyond a chunk.
    """
    steps = check_steps(steps, "non-autonomous backward steps")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite U fails _check_steps
        for times, ys in cf4_chunks(linear_flow(prob), prob.T, (prob.t0 - prob.T) / steps,
                                    steps, terminal_game_flow(prob).stacked()):
            _check_steps(ys[:, :prob.n], times)
    return GameFlow.from_stacked(ys[-1], prob.t0)


def linear_flow(prob):
    """The stacked linear system y' = K(t) y of a game, sampled by its
    stacked sampler."""
    return LinearFlowProblem(matrix=prob.flow_matrix, matrices=prob.flow_matrices,
                             dim=(prob.nplayers + 1) * prob.n)


def gain(flow):
    """P = V U^-1 of the first (for a control problem, the only) player,
    symmetrized as (P + P^T)/2.

    The raw asymmetry is available through :func:`gain_defect`.
    """
    P = flow.gains()[0]
    return 0.5 * (P + P.T)


def gain_defect(flow):
    """max |P_ij - P_ji| of the raw gain, before symmetrization."""
    return symmetry_defect(flow.gains()[0])


def control(prob, t, flow, x):
    """Optimal feedback u = -R(t)^-1 B(t)^T (V U^-1) x."""
    return prob.feedback_controls([t], [flow.gains()], [np.asarray(x, dtype=float)])[0][0]
