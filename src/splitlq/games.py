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
(order 5) and composition forward.  The linear half-flow exp(h/2 K0) is
formed once per step, and once per step length for the whole pass when
K0 is constant.  The quadratic part is c M(c) on the row of gains
c = [P_1 P_2], with M formed by one product with the problem's coupling
stack C, so its Taylor coefficients follow a Cauchy-product recurrence.
Forward, the map is the flow stage of sp2's interleave composed to order
4, run by the stage loop and recorder every other pipeline uses.
"""

from __future__ import annotations

import numpy as np

from . import riccati
from .errors import ConfigError, DimensionError, MisuseError, check_steps
from .magnus import richardson
from .matfun import expm
from .problem import GameProblem, hamiltonian_matrix as game_block_matrix
from .riccati import GameFlow, backward_game, terminal_game_flow
from .splitting import COMPOSE4_ALPHAS, _composed, integrate_forward


def solve_game(game, scheme="sp4", steps_backward=None, steps_forward=64):
    """Backward-then-forward pipeline for a non-zero-sum game.

    The backward pass is backward_game(game, steps_backward), by default
    its CF4 ladder on time-dependent data.  Returns the forward Trajectory
    with gains P_i = V_i U^-1 and controls u_i = -R_ii^-1 B_i^T P_i x
    sampled at every accepted step.
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
    S11 come from the cross weights (S22 = B2 R12^-1 B2^T).  Gains that
    are not n x n raise DimensionError.
    """
    if not game.zero_sum:
        raise MisuseError("zero_sum_rhs needs a game in zero-sum mode")
    n, A = game.n, game.A(t)
    y = [np.atleast_2d(np.asarray(P, dtype=float)) for P in (P1, P2)]
    if any(P.shape != (n, n) for P in y):
        raise DimensionError(f"P1 and P2 must be {n} x {n}, got {[P.shape for P in y]}")
    q = _zs_taylor(game._zero_sum[1](t), np.vstack(y), 1)[1].reshape(2, n, n)
    return tuple(-game.Q[k](t) - A.T @ y[k] - y[k] @ A + q[k] for k in range(2))


def _zs_taylor(C, P, degree):
    # Taylor coefficients c_0 = [P_1 P_2], ..., c_degree, each as a column
    # [c_k1; c_k2], of the quadratic flow c' = c M(c), coefficients frozen.
    # The block columns of M(c) = [[G, S11 c1], [S22 c2, G]], G = S1 c1 +
    # S2 c2, are the halves of C [c1; c2], so M is linear and the Cauchy
    # product gives (Jorba & Zou, Experimental Math. 2005)
    #   c_{k+1} = [c_0 ... c_k] [M(c_k); ...; M(c_0)] / (k + 1):
    # two small products per degree, one with C and one for the sum.
    n = P.shape[1]
    col = np.empty((degree + 1, 2 * n, n))
    MC = np.empty((2, degree, 2 * n, n))  # the block columns of M(c_k), k descending
    col[0] = P
    for k in range(degree):
        np.matmul(C.reshape(2, 2 * n, 2 * n), col[k], out=MC[:, degree - 1 - k])
        row = col[:k + 1].reshape(k + 1, 2, n, n).transpose(2, 0, 1, 3).reshape(n, -1)
        col[k + 1] = (row @ MC[:, degree - 1 - k:].reshape(2, -1, n)).reshape(2 * n, n) / (k + 1)
    return col


def zs_base_step(game, tmid, h, y, cache=None):
    """Symmetric second-order map for the coupled zero-sum RDE, on the
    stacked flow y = [U; V_1; V_2] with P_i = V_i U^-1.

    Strang split with data frozen at the step midpoint ``tmid``: exact
    linear half-flow, degree-4 Taylor of the quadratic flow, exact linear
    half-flow.  The linear part P_i' = -Q_i - A^T P_i - P_i A is the
    stacked flow with no coupling, y -> E y with E = exp(h/2 K0) and
    K0 = [[A, 0, 0], [-Q_1, -A^T, 0], [-Q_2, 0, -A^T]]; it acts on any
    representative of P, so both half-flows apply E, formed once, to y as
    it stands.  When K0 is constant, ``cache`` (a dict kept for one pass)
    holds E per step length h.  The gains are read once, V_stack U^-1 on the
    blocks of E y (one inverse of U for n > 1); the quadratic step is the
    Taylor-coefficient recurrence through the coupling stack
    C = [[S1, S2], [0, S22], [S11, 0], [S1, S2]] (8 small products), and
    the second half-flow starts from [I; P_1; P_2].  Works for signed h.
    """
    K0, C = game._zero_sum
    cache = cache if K0.constant and cache is not None else {}
    if h not in cache:
        cache[h] = expm(0.5 * h * K0(tmid))
    E, n = cache[h], game.n
    Ey = E @ y
    cs = _zs_taylor(C(tmid), riccati._gain_raw(Ey[:n], Ey[n:], tmid), 4)
    P = cs[4]
    for c in cs[3::-1]:  # Horner's rule in h
        P = c + h * P
    return E[:, :n] + E[:, n:] @ P


def backward_zero_sum(game, steps):
    """Backward pass, Richardson-extrapolated over {h, h/2, h/4}.

    The extrapolation removes the h^2 and h^4 terms, but the measured order
    is 5, not 6: the degree-4 Taylor substep of the quadratic flow is not
    time-symmetric, so the base map's error keeps an h^5 term (the error
    falls by about 35 per halving of h).

    Raises ConfigError when ``steps`` is not an integer >= 1, when a ladder
    solution is not finite (the solution escapes on the horizon, or the
    step is too coarse) or when the ladder is non-monotone (the step
    differences must shrink for the even-power expansion to hold).
    """
    if not game.zero_sum:
        raise MisuseError("backward_zero_sum needs a zero-sum game")
    steps = check_steps(steps, "zero-sum backward steps")
    yT, sols = terminal_game_flow(game).stacked(), []
    for mult in (1, 2, 4):  # each run forms its half-flow once when K0 is constant
        h, t, y, cache = (game.t0 - game.T) / (steps * mult), game.T, yT, {}
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            for _ in range(steps * mult):
                y = zs_base_step(game, t + 0.5 * h, h, y, cache)
                t += h
            sols.append(GameFlow.from_stacked(y, game.t0).gains())
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
    steps_forward = check_steps(steps_forward, "zero-sum forward steps")
    steps_backward = check_steps(steps_backward, "zero-sum backward steps")
    cache = {}  # exp(tau/2 K0) per composed substep length tau, for this pass
    engine = _composed(composition_alphas, lambda g, taus, times, K:
                       lambda j, y: zs_base_step(g, times[j], taus[j], y, cache))
    P1, P2 = backward_zero_sum(game, steps_backward)
    return integrate_forward(game, GameFlow(U=np.eye(game.n), V=(P1, P2), t=game.t0),
                             steps_forward, stepper=engine,
                             stages_per_step=len(composition_alphas))
