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
symmetric second-order map on [U; V_1; V_2] (exact linear half-flows
exp(h/2 K0), formed per step or per step length when K0 is constant, and a
Taylor quadratic part whose coefficients follow a Cauchy product through
the coupling stack C), Richardson-extrapolated backward (order 5, its three
runs stepped as one stack) and composed to order 4 forward.
"""

from __future__ import annotations

import numpy as np

from . import riccati
from .errors import ConfigError, DimensionError, InputError, MisuseError, check_steps
from .magnus import richardson
from .matfun import expm
from .problem import GameProblem, _sample, hamiltonian_matrix as game_block_matrix
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
    S11 come from the cross weights (S22 = B2 R12^-1 B2^T).  Gains not
    n x n raise DimensionError, and non-finite ones InputError.
    """
    n, A, C = game.n, game.A(t), game._zero_sum[1]  # MisuseError unless zero-sum
    y = [np.atleast_2d(np.asarray(P, dtype=float)) for P in (P1, P2)]
    if any(P.shape != (n, n) for P in y):
        raise DimensionError(f"P1 and P2 must be {n} x {n}, got {[P.shape for P in y]}")
    if not all(np.isfinite(P).all() for P in y):
        raise InputError("P1 and P2 must be finite")
    q = _zs_taylor(C(t), np.vstack(y), 1)[1]
    return tuple(-game.Q[k](t) - A.T @ y[k] - y[k] @ A + q[k] for k in range(2))


def _zs_taylor(C, P, degree):
    # Taylor coefficients of c' = c M(c) for P = [c1; c2] (2n, n) or a stack, as halves
    # (..., 2, n, n): c_0 = [P_1 P_2], ..., c_{degree-1} in one array, and c_degree.  C [c1; c2]
    # holds the block columns of M(c) (C is (4n, 2n) or a stack), so the Cauchy product (Jorba
    # & Zou, 2005) c_{k+1} = [c_0 ... c_k] [M(c_k); ...; M(c_0)] / (k + 1) is two products.
    *L, w, n = P.shape
    L, a, C = tuple(L), len(L), C.reshape(C.shape[:-2] + (2, w, w))
    row, MC = np.empty(L + (1, n, w * degree)), np.empty(L + (2, w * degree, n))
    # each c_k is kept once, in the row, through this view of it as (degree, ..., 2, n, n)
    cs = row.reshape(L + (n, degree, 2, n)).transpose(a + 1, *range(a), a + 2, a, a + 3)
    c = P.reshape(L + (2, n, n))
    for k, s in enumerate(range(w * (degree - 1), -1, -w)):  # M(c_k) goes above M(c_{k-1})
        cs[k] = c
        np.matmul(C, c.reshape(L + (1, w, n)), out=MC[..., s:s + w, :])
        c = row[..., :w * (k + 1)] @ MC[..., s:, :]
        if k:  # a division by 1 changes no bit
            c /= k + 1
    return np.ascontiguousarray(cs), c


def zs_base_step(game, tmid, h, y, cache=None):
    """Symmetric second-order map for the coupled zero-sum RDE, on the
    stacked flow y = [U; V_1; V_2] with P_i = V_i U^-1, or on a stack
    (k, 3n, n) of flows with k-sequences ``tmid`` and ``h``, each member with
    the bits of its own step; any other shape raises DimensionError.

    Strang split with data frozen at the midpoint ``tmid``: exact linear
    half-flow y -> E y, E = exp(h/2 K0), K0 = [[A, 0, 0], [-Q_1, -A^T, 0],
    [-Q_2, 0, -A^T]] (P_i' = -Q_i - A^T P_i - P_i A on any representative of
    P), degree-4 Taylor of the quadratic flow from [I; P_1; P_2] by the
    recurrence through C = [[S1, S2], [0, S22], [S11, 0], [S1, S2]] (8 small
    products, the gains V_stack U^-1 read once), then E again.  When K0 is
    constant, ``cache`` (a dict kept for one pass) holds E per step length h.
    Works for signed h.
    """
    (K0, C), n, y = game._zero_sum, game.n, np.asarray(y)
    one, cache = y.ndim == 2, cache if K0.constant and cache is not None else {}
    if y.shape[-2:] != (3 * n, n) or not one and (
            y.ndim != 3 or not np.shape(tmid) == np.shape(h) == y.shape[:1]):
        raise DimensionError(f"y must be {3 * n} x {n}, or a stack of them with a tmid and h "
                             f"each, got {y.shape} for {np.shape(h)} steps")
    key, tmid, h = (h, (tmid,), (h,)) if one else (tuple(h), tuple(tmid), tuple(h))
    if key not in cache:  # E per step length, and for a stack the stack of them
        E = [cache[s] if s in cache else expm(0.5 * s * K0(t)) for t, s in zip(tmid, h)]
        cache.update(zip(h, E))
        cache[key] = E[0] if one else np.stack(E)
    E, h = cache[key], key if one else np.array(h)[:, None, None, None]
    Ey = E @ y  # one member's gains by _gain_raw: right_solve's bits, at less cost
    G = (riccati._gain_raw(Ey[:n], Ey[n:], tmid[0]) if one
         else riccati.right_solve(Ey[:, n:], Ey[:, :n], tmid))
    cs, P = _zs_taylor(C(tmid[0]) if one or C.constant else _sample(C, tmid), G, 4)
    for j in range(3, -1, -1):  # Horner's rule in h
        P = cs[j] + h * P
    return E[..., :n] + E[..., n:] @ P.reshape(E.shape[:-2] + (2 * n, n))


def backward_zero_sum(game, steps):
    """Backward pass, Richardson-extrapolated over {h, h/2, h/4}.

    The extrapolation removes the h^2 and h^4 terms, but the measured order
    is 5, not 6: the degree-4 Taylor substep of the quadratic flow is not
    time-symmetric, so the base map's error keeps an h^5 term (the error
    falls by about 35 per halving of h).  Its runs of s, 2s and 4s steps are
    one stack (4s base steps, not 7s), each with its own clock, bits and errors.

    Raises ConfigError when ``steps`` is not an integer >= 1, when a ladder
    solution is not finite (the solution escapes on the horizon, or the
    step is too coarse) or when the ladder is non-monotone (the step
    differences must shrink for the even-power expansion to hold).
    """
    if not game.zero_sum:
        raise MisuseError("backward_zero_sum needs a zero-sum game")
    steps = check_steps(steps, "zero-sum backward steps")
    h = tuple((game.t0 - game.T) / (steps * mult) for mult in (1, 2, 4))
    t, y, cache = [game.T] * 3, np.stack([terminal_game_flow(game).stacked()] * 3), {}
    error, sols = None, []  # the gains of the runs done; y holds those still stepping
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for tick in range(4 * steps):
            if not len(y):
                break
            live = slice(len(sols), len(sols) + len(y))
            tm = [a + 0.5 * b for a, b in zip(t[live], h[live])]
            try:
                y = zs_base_step(game, tm, h[live], y, cache)
            except Exception:  # step the runs alone: the first to fail ends the stack
                for j, args in enumerate(zip(tm, h[live], y)):
                    try:
                        y[j] = zs_base_step(game, *args, cache)
                    except Exception as exc:  # raised once the runs before it are decided
                        error, y = exc, y[:j]
                        break
            t[live] = [a + b for a, b in zip(t[live], h[live])]
            if len(y) and tick + 1 == steps << len(sols):  # run len(sols) has made its steps
                sols, y = sols + [GameFlow.from_stacked(y[0], game.t0).gains()], y[1:]
                for k in range(2):
                    if not np.all(np.isfinite(sols[-1][k])):
                        raise ConfigError(
                            f"zero-sum backward pass with {steps << len(sols) - 1} steps gave "
                            f"a non-finite P{k + 1}({game.t0}): the solution escapes on "
                            f"[{game.t0}, {game.T}] or the step is too coarse")
    if error is not None:
        raise error
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
