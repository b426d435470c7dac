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
symmetric second-order map on the stacked flow [U; V_1; V_2] (exact linear
part, Taylor quadratic part) plus Richardson extrapolation backward
(order 5) and composition forward.  The linear part is the stacked flow
with no coupling, applied with ``expm_apply``; the quadratic part is one
bilinear form on the gains, read once per step through ``GameFlow.gains``.
Forward, the map is the flow stage of sp2's interleave composed to order
4, run by the stage loop and recorder every other pipeline uses.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, MisuseError
from .magnus import richardson
from .matfun import expm_apply
from .problem import GameProblem, hamiltonian_matrix as game_block_matrix
from .riccati import GameFlow, backward_game, terminal_game_flow
from .splitting import COMPOSE4_ALPHAS, _composed, integrate_forward


def solve_game(game, scheme="sp4", steps_backward=64, steps_forward=64):
    """Backward-then-forward pipeline for a non-zero-sum game.

    Returns the forward Trajectory with gains P_i = V_i U^-1 and controls
    u_i = -R_ii^-1 B_i^T P_i x sampled at every accepted step.
    """
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


def zs_base_step(game, tmid, h, y):
    """Symmetric second-order map for the coupled zero-sum RDE, on the
    stacked flow y = [U; V_1; V_2] with P_i = V_i U^-1.

    Strang split with data frozen at the step midpoint ``tmid``: exact
    linear half-flow, degree-4 Taylor of the quadratic flow, exact linear
    half-flow.  The linear part P_i' = -Q_i - A^T P_i - P_i A is the
    stacked flow with no coupling, y -> exp(h/2 K0) y with
    K0 = [[A, 0, 0], [-Q_1, -A^T, 0], [-Q_2, 0, -A^T]]; it acts on any
    representative of P, so both half-flows apply to y as it stands.  The
    gains are read once, with one U solve, for the quadratic step, and the
    second half-flow starts from [I; P_1; P_2].  Works for signed h.
    """
    K0, S22, S11 = game.zero_sum_terms(tmid)
    K0 = 0.5 * h * K0
    P = GameFlow.from_stacked(expm_apply(K0, y), tmid).gains()
    P = _zs_quadratic_taylor4(_zs_bilinear(*game.coupling_at(tmid), S22, S11), h, P)
    return expm_apply(K0, np.vstack([np.eye(game.n), *P]))


def _zs_integrate(game, t_start, t_end, steps, y):
    # ``steps`` base steps from t_start to t_end; P is read at the end only.
    h = (t_end - t_start) / steps
    t = t_start
    for _ in range(steps):
        y = zs_base_step(game, t + 0.5 * h, h, y)
        t += h
    return GameFlow.from_stacked(y, t_end).gains()


def backward_zero_sum(game, steps):
    """Backward pass, Richardson-extrapolated over {h, h/2, h/4}.

    The extrapolation removes the h^2 and h^4 terms, but the measured order
    is 5, not 6: the degree-4 Taylor substep of the quadratic flow is not
    time-symmetric, so the base map's error keeps an h^5 term (the error
    falls by about 35 per halving of h).

    Raises ConfigError when ``steps`` < 1, when a ladder solution is not
    finite (the solution escapes on the horizon, or the step is too
    coarse) or when the ladder is non-monotone (the step differences must
    shrink for the even-power expansion to hold).
    """
    if not game.zero_sum:
        raise MisuseError("backward_zero_sum needs a zero-sum game")
    if steps < 1:
        raise ConfigError(f"zero-sum backward pass needs steps >= 1, got {steps}")
    yT = terminal_game_flow(game).stacked()
    sols = []
    for mult in (1, 2, 4):
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sols.append(_zs_integrate(game, game.T, game.t0, steps * mult, yT))
        for k in range(2):
            if not np.all(np.isfinite(sols[-1][k])):
                raise ConfigError(
                    f"zero-sum backward pass with {steps * mult} steps gave a "
                    f"non-finite P{k + 1}({game.t0}): the solution escapes on "
                    f"[{game.t0}, {game.T}] or the step is too coarse"
                )
    runs = np.asarray(sols)  # ladder run x player x n x n
    d1, d2 = np.max(np.abs(runs[1] - runs[0])), np.max(np.abs(runs[2] - runs[1]))
    if d2 > d1 and d1 > 1e-14:
        raise ConfigError(
            f"zero-sum extrapolation defects non-monotone ({d1:.3e} -> {d2:.3e}); "
            "reduce the base step"
        )
    return tuple(richardson(richardson(runs[0], runs[1], 2),
                            richardson(runs[1], runs[2], 2), 4))


def solve_zero_sum(game, steps_backward=32, composition_alphas=COMPOSE4_ALPHAS,
                   steps_forward=64):
    """Backward extrapolated pass, then forward composed symmetric map.

    The forward map is sp2's a/b interleave with zs_base_step as the flow
    map, composed over ``composition_alphas`` as one coefficient sequence,
    run by the shared forward driver; the step counts and weights are
    checked first.  The final-condition defect max_i |P_i(T) - Q_iT| is the
    reported accuracy estimate.
    """
    if not game.zero_sum:
        raise MisuseError("solve_zero_sum needs a zero-sum game")
    if min(steps_backward, steps_forward) < 1:
        raise ConfigError(f"zero-sum solve needs steps >= 1, got {steps_backward} "
                          f"backward and {steps_forward} forward")
    engine = _composed(composition_alphas, lambda g, taus, times, K:
                       lambda j, y: zs_base_step(g, times[j], taus[j], y))
    P1, P2 = backward_zero_sum(game, steps_backward)
    return integrate_forward(game, GameFlow(U=np.eye(game.n), V=(P1, P2), t=game.t0),
                             steps_forward, stepper=engine,
                             stages_per_step=len(composition_alphas))
