"""Baseline integrators for the work-precision comparison.

Classical RK4 with fixed steps and an embedded Dormand-Prince 5(4) pair
with PI step-size control, both applied to the coupled forward system
(stacked Riccati blocks + state) flattened into one vector field.  These
integrators make no attempt to preserve symmetry or positivity of the
gain; the benchmark uses them to demonstrate exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InputError, SingularityError, check_steps


@dataclass(eq=False)
class FlatODE:
    """A flat vector field y' = rhs(t, y) with an evaluation counter."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    evaluations: int = field(default=0)

    def __call__(self, t, y):
        self.evaluations += 1
        return self.rhs(t, y)


def flatten_pipeline(prob, flow0):
    """Flatten the coupled forward system of a problem into a FlatODE.

    The layout is [vec(U), vec(V_1), ..., vec(V_N), x]; the initial vector
    encodes the backward-pass result ``flow0`` and the problem's x0.
    """
    from .riccati import closed_loop

    n = prob.n

    def rhs(t, y):
        blocks, x = unflatten(prob, y)
        K = prob.flow_matrix(t)  # first block row [A, -S_1 .. -S_N]
        N = closed_loop(K[:n, :n], -K[:n, n:], blocks, t)
        return np.concatenate([(K @ blocks).ravel(), N @ x])

    y0 = np.concatenate([flow0.stacked().ravel(), prob.x0])
    return FlatODE(dimension=len(y0), rhs=rhs), y0


def unflatten(prob, y):
    """Split a flat vector back into (stacked blocks, state)."""
    k = len(y) - prob.n  # the blocks' entries
    return y[:k].reshape(-1, prob.n), y[k:]


def rk4_step(ode, t, h, y):
    """One classical 4-stage Runge-Kutta step (exactly 4 rhs evaluations)."""
    k1 = ode(t, y)
    k2 = ode(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = ode(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = ode(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_solve(ode, t0, t1, steps, y0):
    steps = check_steps(steps)
    h = (t1 - t0) / steps
    y = np.asarray(y0, dtype=float)
    for k in range(steps):
        y = rk4_step(ode, t0 + k * h, h, y)
    return y


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_DP_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
# rows of the 5th-order solution and the embedded 4th-order error weights
_DP_B5 = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
          11.0 / 84.0, 0.0)
_DP_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
         -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
# the smallest rel_tol (scipy solve_ivp's floor): below it the controller can accept
# ever smaller steps for minutes without reaching its underflow guard
RTOL_FLOOR = 100.0 * np.finfo(float).eps


def adaptive_solve(ode, t0, t1, y0, abs_tol, rel_tol):
    """Dormand-Prince 5(4) with standard PI step control.

    Returns (y(t1), total rhs evaluations).  Raises InputError for a
    tolerance that is not positive or a rel_tol below RTOL_FLOOR, and
    SingularityError when the controller underflows below 1e-14 * (t1 - t0)
    (stiffness or an unreachable tolerance).
    """
    if not (abs_tol > 0.0 and rel_tol >= RTOL_FLOOR):  # written so that a NaN fails too
        raise InputError(f"tolerances must be positive and rel_tol at least {RTOL_FLOOR:.3g} "
                         f"(100 eps); got abs_tol {abs_tol:g}, rel_tol {rel_tol:g}")
    y = np.asarray(y0, dtype=float)
    t = t0
    span = t1 - t0
    direction = 1.0 if span >= 0 else -1.0
    h = span / 100.0
    if h == 0.0:
        return y, 0
    err_prev = 1.0
    k = [np.zeros_like(y) for _ in range(7)]
    k[0] = ode(t, y)
    while (t1 - t) * direction > 0.0:
        if abs(h) < 1e-14 * abs(span):
            raise SingularityError(
                f"adaptive step underflow at t = {t} (h = {h:.3e})", where=t)
        if (t + h - t1) * direction > 0.0:
            h = t1 - t
        for i in range(1, 7):
            yi = y + h * sum(a * k[j] for j, a in enumerate(_DP_A[i]))
            k[i] = ode(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * k[i] for i, b in enumerate(_DP_B5) if b != 0.0)
        err_vec = h * sum(e * k[i] for i, e in enumerate(_DP_E) if e != 0.0)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if err <= 1.0:
            t += h
            y = y5
            k[0] = k[6]  # FSAL: last stage of the accepted step
            factor = _SAFETY * (max(err, 1e-16) ** -_PI_ALPHA) * (err_prev ** _PI_BETA)
            err_prev = max(err, 1e-16)
        else:
            factor = _SAFETY * (err ** -_PI_ALPHA)
        h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
    return y, ode.evaluations
