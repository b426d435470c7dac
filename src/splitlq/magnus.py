"""Commutator-free fourth-order Magnus steps for y' = M(t) y.

The step is the two-exponential CF4 scheme with matrix samples at the
endpoints and the midpoint,

    y_{n+1} = exp((h/12)(-M0 + 4 M_half + 3 M1))
              exp((h/12)( 3 M0 + 4 M_half - M1)) y_n,

exact for constant M (the exponents commute and sum to h M).  Negative h
integrates backward.

Uniform steps run in chunks: a chunk samples its distinct nodes in one call
(a step's end node is the next step's start, so a step costs two samples)
and forms every exponent of the chunk as one stacked array, applied by one
``matfun.expm_chain`` call.  Where the chunk spans more than one step (d <=
8) their exponentials are formed as one stack and a step costs two
products; otherwise the Horner loop runs on the block.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, check_steps
from .matfun import expm_chain, norm1

# A chunk holds two samples and two exponents, four d x d arrays, per step;
# its length keeps them under this many bytes (32 steps at d = 2, one step
# from d = 12 on).
_CHUNK_BYTES = 4096

# The CF4 doubling ladder 16, 32, ... stops at BACKWARD_STEPS, where it takes
# the plain run.  CF4's error has only even powers of h, so in its asymptotic
# range each halving of h divides the step-to-step difference by 16.
BACKWARD_STEPS = 2048
_LADDER_RATE = (10.0, 24.0)
_ROUNDOFF = 1e-14


@dataclass(frozen=True, eq=False)
class LinearFlowProblem:
    """A linear non-autonomous system y' = M(t) y of dimension d.

    ``matrix`` must return a d x d array for every queried t; the sign of
    the step passed to the integrators selects forward or backward flow.
    ``matrices``, when given, samples M at a list of times at once and
    returns them stacked, (len(times), d, d).
    """

    matrix: Callable[[float], np.ndarray]
    dim: int
    matrices: Callable[[list], np.ndarray] | None = None

    def sample(self, times):
        """M at each of ``times``, stacked over a leading node axis."""
        if self.matrices is not None:
            return self.matrices(times)
        M = np.array([self.matrix(t) for t in times], dtype=float)
        if M.shape[1:] != (self.dim, self.dim):
            raise InputError(f"matrix(t) returned shape {M.shape[1:]}, "
                             f"expected ({self.dim}, {self.dim})")
        return M


def at_nodes(sample, times, memo):
    """``sample(nodes)``'s stacked arrays at the distinct nodes of ``times``, in
    one call, and each entry's index there.  The last node is kept in ``memo``
    and not sampled again, unless a broadcast (0 stride) would be copied."""
    index = {}
    pos = [index.setdefault(t, len(index)) for t in times]
    nodes = list(index)
    reuse = len(nodes) > 1 and nodes[0] in memo
    arrays = sample(nodes[1:] if reuse else nodes)
    if reuse:
        arrays = tuple(np.concatenate(pair) for pair in zip(memo[nodes[0]], arrays))
    memo.clear()
    if all(M.strides[0] for M in arrays):
        memo[times[-1]] = tuple(M[pos[-1]: pos[-1] + 1] for M in arrays)
    return arrays, pos


def cf4_chunks(prob, t, h, steps, y):
    """Advance y by ``steps`` CF4 steps of size h from t, a chunk at a time.

    Yields, per chunk, the times reached (``t += h`` per step) and the stack
    of y after each step.  A non-finite exponent raises InputError after the
    chunk's steps before it have been yielded.
    """
    if h == 0.0:
        raise InputError("CF4 step size must be nonzero")
    chunk = max(1, _CHUNK_BYTES // (32 * prob.dim * prob.dim))
    memo = {}
    while steps > 0:
        m = min(chunk, steps)
        steps -= m
        nodes, times = [], []
        for _ in range(m):
            nodes += [t, t + 0.5 * h, t + h]
            t += h
            times.append(t)
        (M,), pos = at_nodes(lambda ts: (prob.sample(ts),), nodes, memo)
        E = cf4_exponents(h / 12.0, *(M[pos[k::3]] for k in range(3)))
        finite = np.isfinite(norm1(E)).all(axis=1)
        ok = m if finite.all() else int(np.argmin(finite))
        if ok:
            ys = expm_chain(E[:ok].reshape(-1, *E.shape[2:]), y, np.empty((ok,) + y.shape))
            y = ys[-1]
            yield times[:ok], ys
        if ok < m:
            raise InputError("matrix contains non-finite entries")


def cf4_exponents(c, M0, Mmid, M1):
    # each step's two exponents, stacked (m, 2, d, d), from M at its start, midpoint and end
    return np.stack([c * (3.0 * M0 + 4.0 * Mmid - M1), c * (-M0 + 4.0 * Mmid + 3.0 * M1)], axis=1)


def _advance(prob, t, h, steps, y):
    for _, ys in cf4_chunks(prob, t, h, steps, y):
        pass
    return ys[-1]


def cf4_step(prob, t_n, h, y):
    """One CF4 step from t_n to t_n + h applied to a vector or matrix y."""
    return _advance(prob, t_n, h, 1, y)


def integrate(prob, t0, t1, steps, y0):
    """``steps`` uniform CF4 steps from t0 to t1.

    Costs 2*steps + 1 matrix samples and 2*steps exponential actions.
    """
    steps = check_steps(steps)
    return _advance(prob, t0, (t1 - t0) / steps, steps, np.asarray(y0, dtype=float))


def richardson(coarse, fine, p):
    """Richardson extrapolation of an order-p result: ``fine`` at step h/2
    and ``coarse`` at step h give a result whose h^p error term cancels."""
    return (2**p * fine - coarse) / (2**p - 1)


def _settled(runs, agreement):
    # Four judged runs at s, 2s, 4s, 8s steps: the extrapolant of the last two
    # is accepted when it agrees with the one before to ``agreement``,
    # relative, and each of the last two halvings shrank the step-to-step
    # difference at CF4's rate (unless that difference is at roundoff already).
    last = richardson(runs[2], runs[3], 4)
    scale = max(1.0, float(np.max(np.abs(last))))
    gap = float(np.max(np.abs(last - richardson(runs[1], runs[2], 4))))
    d = [float(np.max(np.abs(runs[k + 1] - runs[k]))) for k in range(3)]
    lo, hi = _LADDER_RATE
    return gap <= agreement * scale and all(
        fine <= _ROUNDOFF * scale or lo * fine <= coarse <= hi * fine
        for coarse, fine in zip(d, d[1:]))


def cf4_ladder(run, judged, agreement):
    """CF4 at 16, 32, ... BACKWARD_STEPS steps, ``run(s)`` each, judged by
    the array ``judged(run(s))``, of which the last four are kept.  Returns
    (settled, coarse, fine), the last two runs: settled when the ladder
    accepted their Richardson extrapolant below the cap (``_settled``), else
    fine is the run at BACKWARD_STEPS."""
    runs, fine, steps = deque(maxlen=4), None, 16
    while steps < BACKWARD_STEPS:
        coarse, fine = fine, run(steps)
        runs.append(np.asarray(judged(fine)))
        if len(runs) == 4 and _settled(runs, agreement):
            return True, coarse, fine
        steps *= 2
    return False, fine, run(BACKWARD_STEPS)
