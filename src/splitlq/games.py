"""N-player linear-quadratic differential games.

Non-zero-sum games are the general case of the pipeline: the N coupled
Riccati equations become one linear system on the stacked blocks
[U; V_1; ...; V_N], integrated backward for initial data and forward with
the splitting engines.  A single-player control problem is the game with
N = 1, so the problem type (GameProblem), the flow type (GameFlow) and the
backward pass (backward_game) live in :mod:`splitlq.problem` and
:mod:`splitlq.riccati` and are re-exported here.

Zero-sum games couple the Riccati equations quadratically through the
cross weights, so no linearization exists; they are solved with a
symmetric second-order map (exact linear part, Taylor quadratic part) plus
Richardson extrapolation backward (order 5) and composition forward.  The
linear part is the stacked flow with no coupling, applied with
``expm_apply`` and read through ``GameFlow.gains``; the quadratic part is
one bilinear form.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MisuseError
from .matfun import expm_apply
from .problem import GameProblem, hamiltonian_matrix as game_block_matrix
from .riccati import GameFlow, backward_game
from .splitting import (COMPOSE4_ALPHAS, compose, integrate_forward,
                        record_trajectory)


def solve_game(game, scheme="sp4", steps_backward=64, steps_forward=64):
    """Backward-then-forward pipeline for a non-zero-sum game.

    Returns the forward Trajectory with gains P_i = V_i U^-1 and controls
    u_i = -R_ii^-1 B_i^T P_i x sampled at every accepted step.
    """
    if game.zero_sum:
        raise MisuseError("zero-sum games are solved by solve_zero_sum")
    flow0 = backward_game(game, steps=steps_backward)
    return integrate_forward(game, flow0, steps_forward, method=scheme)


# ---------------------------------------------------------------------------
# Zero-sum two-player game
# ---------------------------------------------------------------------------


def zero_sum_rhs(game, t, P1, P2):
    """Right sides of the coupled zero-sum Riccati equations.

    P1' = -Q1 - A^T P1 - P1 A + P1 S1 P1 + P1 S2 P2 + P2 S22 P2 and the
    same with roles exchanged, where S_i are the self matrices and S22,
    S11 come from the cross weights (S22 = B2 R12^-1 B2^T).
    """
    if not game.zero_sum:
        raise MisuseError("zero_sum_rhs needs a game in zero-sum mode")
    A = game.A(t)
    y = tuple(np.atleast_2d(np.asarray(P, dtype=float)) for P in (P1, P2))
    q = _zs_bilinear(*game.coupling_at(t), *game.zero_sum_terms(t)[1:])(y, y)
    return tuple(-game.Q[k](t) - A.T @ y[k] - y[k] @ A + 0.5 * q[k]
                 for k in range(2))


def _zs_quadratic_taylor4(bil, tau, y):
    # Degree-4 Taylor of y' = bil(y, y)/2, the homogeneous quadratic part
    # with coefficients frozen.  By the chain rule
    #   y2 = bil(y, y1),  y3 = bil(y1, y1) + bil(y, y2),
    #   y4 = 3 bil(y1, y2) + bil(y, y3).
    y1 = tuple(0.5 * b for b in bil(y, y))
    y2 = bil(y, y1)
    b11 = bil(y1, y1)
    by2 = bil(y, y2)
    y3 = (b11[0] + by2[0], b11[1] + by2[1])
    b12 = bil(y1, y2)
    by3 = bil(y, y3)
    y4 = (3.0 * b12[0] + by3[0], 3.0 * b12[1] + by3[1])
    return [
        y[k] + tau * y1[k] + tau**2 / 2.0 * y2[k]
        + tau**3 / 6.0 * y3[k] + tau**4 / 24.0 * y4[k]
        for k in range(2)
    ]


def _zs_bilinear(S1, S2, S22, S11):
    # The symmetric bilinear form bil with bil(y, y)/2 the quadratic part
    # of the zero-sum right sides, for y = (P1, P2).
    def bil(U, V):
        U1, U2 = U
        V1, V2 = V
        b1 = (U1 @ S1 @ V1 + V1 @ S1 @ U1
              + U1 @ S2 @ V2 + V1 @ S2 @ U2
              + U2 @ S22 @ V2 + V2 @ S22 @ U2)
        b2 = (U2 @ S2 @ V2 + V2 @ S2 @ U2
              + U2 @ S1 @ V1 + V2 @ S1 @ U1
              + U1 @ S11 @ V1 + V1 @ S11 @ U1)
        return b1, b2

    return bil


def zs_base_step(game, t, h, P1, P2):
    """Symmetric second-order map for the coupled zero-sum RDE.

    Strang split with data frozen at the step midpoint: exact linear
    half-flow, degree-4 Taylor of the quadratic flow, exact linear
    half-flow.  The linear part P_i' = -Q_i - A^T P_i - P_i A is the
    stacked flow with no coupling, [U; V_1; V_2] = exp(h/2 K0) [I; P_1; P_2]
    with K0 = [[A, 0, 0], [-Q_1, -A^T, 0], [-Q_2, 0, -A^T]], read through
    one U solve for both players.  Works for signed h.
    """
    tmid = t + 0.5 * h
    n = game.n
    K0, S22, S11 = game.zero_sum_terms(tmid)
    K0 = 0.5 * h * K0

    def linear_half(P):
        y = expm_apply(K0, np.vstack([np.eye(n), *P]))
        return GameFlow.from_stacked(y, tmid).gains()

    P = linear_half((P1, P2))
    P = _zs_quadratic_taylor4(_zs_bilinear(*game.coupling_at(tmid), S22, S11), h, P)
    P1, P2 = linear_half(P)
    return P1, P2


def _zs_integrate(game, t_start, t_end, steps, P1, P2):
    h = (t_end - t_start) / steps
    t = t_start
    for _ in range(steps):
        P1, P2 = zs_base_step(game, t, h, P1, P2)
        t += h
    return P1, P2


def backward_zero_sum(game, steps):
    """Backward pass, Richardson-extrapolated over {h, h/2, h/4}.

    The extrapolation removes the h^2 and h^4 terms, but the measured order
    is 5, not 6: the degree-4 Taylor substep of the quadratic flow is not
    time-symmetric, so the base map's error keeps an h^5 term (the error
    falls by about 35 per halving of h).

    Raises ConfigError when a ladder solution is not finite (the solution
    escapes on the horizon, or the step is too coarse) or when the ladder
    is non-monotone (the step differences must shrink for the
    even-power expansion to hold).
    """
    if not game.zero_sum:
        raise MisuseError("backward_zero_sum needs a zero-sum game")
    P1T, P2T = game.QT
    sols = []
    for mult in (1, 2, 4):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sols.append(_zs_integrate(game, game.T, game.t0, steps * mult, P1T, P2T))
        for k in range(2):
            if not np.all(np.isfinite(sols[-1][k])):
                raise ConfigError(
                    f"zero-sum backward pass with {steps * mult} steps gave a "
                    f"non-finite P{k + 1}({game.t0}): the solution escapes on "
                    f"[{game.t0}, {game.T}] or the step is too coarse"
                )
    d1 = max(np.max(np.abs(sols[1][k] - sols[0][k])) for k in range(2))
    d2 = max(np.max(np.abs(sols[2][k] - sols[1][k])) for k in range(2))
    if d2 > d1 and d1 > 1e-14:
        raise ConfigError(
            f"zero-sum extrapolation defects non-monotone ({d1:.3e} -> {d2:.3e}); "
            "reduce the base step"
        )
    out = []
    for k in range(2):
        t11, t21, t31 = sols[0][k], sols[1][k], sols[2][k]
        t22 = (4.0 * t21 - t11) / 3.0
        t32 = (4.0 * t31 - t21) / 3.0
        t33 = (16.0 * t32 - t22) / 15.0
        out.append(t33)
    return out[0], out[1]


def solve_zero_sum(game, steps_backward=32, composition_alphas=COMPOSE4_ALPHAS,
                   steps_forward=64):
    """Backward extrapolated pass, then forward composed symmetric map.

    The forward base map advances the state by half-steps of the
    closed-loop exponential around the P-update (mirroring the
    second-order map of the linear pipeline).  The final-condition defect
    max_i |P_i(T) - Q_iT| is the reported accuracy estimate.
    """
    if not game.zero_sum:
        raise MisuseError("solve_zero_sum needs a zero-sum game")
    P1, P2 = backward_zero_sum(game, steps_backward)

    def half_state(h, t, p1, p2, x):
        S1, S2 = game.coupling_at(t)
        return expm_apply(0.5 * h * (game.A(t) - S1 @ p1 - S2 @ p2), x)

    def base(h, state, prob):
        (p1, p2), x, t = state
        x = half_state(h, t, p1, p2, x)
        p1, p2 = zs_base_step(prob, t, h, p1, p2)
        return (p1, p2), half_state(h, t + h, p1, p2, x), t + h

    h = (game.T - game.t0) / steps_forward
    state = ((P1, P2), game.x0.copy(), game.t0)
    return record_trajectory(game, compose(base, composition_alphas), state, h,
                             steps_forward, lambda s: (s[2], s[1], s[0]),
                             steps_forward * len(composition_alphas))
