"""Commutator-free fourth-order Magnus step for y' = M(t) y.

The step is the two-exponential CF4 scheme with matrix samples at the
endpoints and the midpoint,

    y_{n+1} = exp((h/12)(-M0 + 4 M_half + 3 M1))
              exp((h/12)( 3 M0 + 4 M_half - M1)) y_n,

exact for constant M (the exponents commute and sum to h M).  Negative h
integrates backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError
from .matfun import expm_apply


@dataclass(frozen=True, eq=False)
class LinearFlowProblem:
    """A linear non-autonomous system y' = M(t) y of dimension d.

    ``matrix`` must return a d x d array for every queried t; the sign of
    the step passed to the integrators selects forward or backward flow.
    """

    matrix: Callable[[float], np.ndarray]
    dim: int


def cf4_step(prob, t_n, h, y):
    """One CF4 step from t_n to t_n + h applied to a vector or matrix y."""
    if h == 0.0:
        raise InputError("CF4 step size must be nonzero")
    M0 = prob.matrix(t_n)
    Mh = prob.matrix(t_n + 0.5 * h)
    M1 = prob.matrix(t_n + h)
    if M0.shape != (prob.dim, prob.dim):
        raise InputError(
            f"matrix(t) returned shape {M0.shape}, expected ({prob.dim}, {prob.dim})"
        )
    y = expm_apply((h / 12.0) * (3.0 * M0 + 4.0 * Mh - M1), y)
    return expm_apply((h / 12.0) * (-M0 + 4.0 * Mh + 3.0 * M1), y)


def integrate(prob, t0, t1, steps, y0):
    """Drive cf4_step over ``steps`` uniform steps from t0 to t1.

    Costs 3*steps matrix samples and 2*steps exponential actions.
    """
    if steps < 1:
        raise InputError("steps must be >= 1")
    h = (t1 - t0) / steps
    y = np.asarray(y0, dtype=float)
    for k in range(steps):
        y = cf4_step(prob, t0 + k * h, h, y)
    return y
