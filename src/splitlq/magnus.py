"""Commutator-free fourth-order Magnus steps for y' = M(t) y.

The step is the two-exponential CF4 scheme with matrix samples at the
endpoints and the midpoint,

    y_{n+1} = exp((h/12)(-M0 + 4 M_half + 3 M1))
              exp((h/12)( 3 M0 + 4 M_half - M1)) y_n,

exact for constant M (the exponents commute and sum to h M).  Negative h
integrates backward.

Uniform steps run in chunks: a chunk samples its distinct nodes in one call
(a step's end node is the next step's start, so a step costs two samples)
and forms every exponent of the chunk as one stacked array.  Where the
chunk spans more than one step (d <= 8) their exponentials are formed as
one stack and a step costs two products; otherwise the Horner loop runs on
the block (``matfun.expm_actions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, check_steps
from .matfun import expm_actions, norm1

# A chunk holds two samples and two exponents, four d x d arrays, per step;
# its length keeps them under this many bytes (32 steps at d = 2, one step
# from d = 12 on).
_CHUNK_BYTES = 4096


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

    Yields, per chunk, the times reached (``t += h`` per step) and y after
    each step of the chunk.  A non-finite exponent raises InputError after
    the chunk's steps before it have been yielded.
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
        start, mid, end = (M[pos[k::3]] for k in range(3))
        E = np.empty((m, 2) + start.shape[1:])  # step j's two exponents
        E[:, 0] = (h / 12.0) * (3.0 * start + 4.0 * mid - end)
        E[:, 1] = (h / 12.0) * (-start + 4.0 * mid + 3.0 * end)
        finite = np.isfinite(norm1(E)).all(axis=1)
        ok = m if finite.all() else int(np.argmin(finite))
        act = expm_actions(E[:ok].reshape(-1, *E.shape[2:]))
        ys = []
        for j in range(ok):
            y = act(2 * j + 1, act(2 * j, y))
            ys.append(y)
        if ok:
            yield times[:ok], ys
        if ok < m:
            raise InputError("matrix contains non-finite entries")


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
