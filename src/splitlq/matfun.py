"""Dense small-matrix utilities.

Matrix exponential and its action on a block of vectors by one truncated
Taylor series (scaled and squared past theta_12 when formed), save that the
2 x 2 members of a stack up to theta_12 take a closed form through their
eigenvalues; the Cayley / Pade(1,1) map; structural checks (symmetry defect,
smallest eigenvalue of a symmetric matrix).  All are pure functions of plain
``numpy`` arrays.  Actions exp(E_j) @ Y run in one chain kernel,
``expm_chain``: a cumulative product for d = 1, a formed stack up to d = 8,
the Horner loop on the block Y above.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError, SingularityError

# theta_m, m = 1..30: the largest 1-norm of M for which the degree-m Taylor
# polynomial of exp(M) has backward error below the double-precision unit
# roundoff (Higham, Functions of Matrices, Table A.3; Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 2011).
_TAYLOR_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.4e-4, 2.4e-3, 9.07e-3, 2.38e-2,
                 5.0e-2, 8.96e-2, 0.144, 0.214, 0.3, 0.4, 0.514, 0.641, 0.781,
                 0.931, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64,
                 2.86, 3.08, 3.31, 3.54)
# expm scales M to 1-norm theta_12 = 0.3 before it squares.
_TAYLOR_TOP = 12

# Up to this d a CF4 chunk spans more than one step and a call costs more
# than its flops: exp(M) @ Y forms exp(M), one stack per chunk.
_FORM_DIM = 8

# 1/cond below this means the solve result cannot be trusted.
RCOND_FLOOR = 1e-12


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DimensionError(f"{name} must be square and non-empty, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def norm1(M):
    """1-norm (largest absolute column sum) of M, or of each matrix of a
    stack M (..., d, d)."""
    A = np.abs(M)
    if A.shape[-1] == 2:  # the same sums, without a reduction over two-long axes
        return np.maximum(A[..., 0, 0] + A[..., 1, 0], A[..., 0, 1] + A[..., 1, 1])
    return A.sum(axis=-2).max(axis=-1)


def rcond(A):
    """1-norm reciprocal condition number of A, or of each matrix of a stack
    (..., d, d), from the explicit inverse; 0 where LAPACK reports A singular.
    A 1 x 1 matrix needs no inverse: 1 when finite and nonzero, else 0."""
    A = np.asarray(A, dtype=float)
    if A.shape[-2:] == (1, 1):
        r = (np.isfinite(A) & (A != 0.0))[..., 0, 0].astype(float)
    else:
        try:
            norms = norm1(A) * norm1(np.linalg.inv(A))
        except np.linalg.LinAlgError:
            return 0.0 if A.ndim == 2 else np.array([rcond(a) for a in A])
        with np.errstate(divide="ignore"):
            r = np.where(norms > 0, 1.0 / norms, 0.0)
    return r if r.ndim else float(r)


def first_singular(A):
    """(index, 1/cond) of the first matrix of A, a matrix or a stack over a
    leading axis, with 1/cond below RCOND_FLOOR; None when there is none."""
    r = np.ravel(rcond(A))
    bad = np.flatnonzero(r < RCOND_FLOOR)
    return (int(bad[0]), float(r[bad[0]])) if bad.size else None


def solve_checked(A, B, where=None):
    """Solve A X = B by LU with partial pivoting, guarding the condition:
    SingularityError when 1/cond(A) < RCOND_FLOOR (0 when singular).  A may
    be a stack over a leading axis, solved matrix by matrix; ``where`` then
    lists a label per matrix, and the first failing one is reported."""
    A = np.asarray(A, dtype=float)
    hit = first_singular(A)
    if hit is not None:
        k, r = hit
        raise SingularityError(f"matrix is numerically singular (1/cond = {r:.3e})",
                               where=where if A.ndim == 2 else where[k])
    return np.linalg.solve(A, B)


def expm(M):
    """Matrix exponential of a square matrix: M scaled by 2**-s to 1-norm at
    most theta_12, the Taylor polynomial of taylor_degrees by Horner
    (taylor_apply on I), squared s times.  Relative accuracy is ~1e-13 or
    better for moderate norms; a 1-norm near the largest float gives a finite s."""
    M = _as_square(M)
    if M.shape[0] == 1:
        return np.exp(M)
    with np.errstate(over="ignore"):  # a finite M whose column sum overflows
        norm = min(norm1(M), np.finfo(float).max)
    theta = _TAYLOR_THETA[_TAYLOR_TOP - 1]
    s = int(np.ceil(np.log2(norm) - np.log2(theta))) if norm > theta else 0
    X = np.ldexp(M, -s)
    F = taylor_apply(X, np.eye(len(M)), taylor_degrees(norm1(X)))
    for _ in range(s):
        F = F @ F
    return F


def taylor_degrees(norms):
    """Taylor degree of exp(M) @ Y for each 1-norm ||M||_1 in ``norms``: the
    smallest m with ||M||_1 <= theta_m, or 0 above theta_30, where the
    exponential is formed instead.  A non-finite norm raises InputError."""
    norms = np.asarray(norms, dtype=float)
    if not np.isfinite(norms).all():
        raise InputError("matrix contains non-finite entries")
    return np.where(norms <= _TAYLOR_THETA[-1],
                    np.searchsorted(_TAYLOR_THETA, norms) + 1, 0).tolist()


def taylor_apply(M, Y, degree):
    """exp(M) @ Y for the ``degree`` that taylor_degrees picks for M: Horner's
    Taylor polynomial, or the formed exponential for degree 0."""
    if degree == 0:
        return expm(M) @ Y
    acc = Y
    for k in range(degree, 0, -1):
        acc = Y + M.dot(acc) / k  # the bits of M @ acc, at less call overhead
    return acc


def _expm2(E):
    """exp(E_j) for a stack E (k, 2, 2) of [[a, b], [c, d]] in closed form
    (Moler & Van Loan, SIAM Review 2003): e^mu (C I + S (E_j - mu I)), where
    mu = (a + d) / 2 and q = h^2 + bc, h = (a - d) / 2, is the square of the
    eigenvalues of E_j - mu I; with r = sqrt|q|, C, S = cosh r, sinh(r) / r
    for q > 0, else cos r, sin(r) / r (S = 1 at r = 0)."""
    a, b, c, d = E.reshape(-1, 4).T
    mu, h = 0.5 * (a + d), 0.5 * (a - d)
    q = h * h + b * c
    r = np.sqrt(np.abs(q))
    C = np.where(q > 0, np.cosh(r), np.cos(r))
    S = np.divide(np.where(q > 0, np.sinh(r), np.sin(r)), r, out=np.ones_like(r), where=r > 0)
    F = S[:, None, None] * E  # the off-diagonal entries
    F[:, 0, 0], F[:, 1, 1] = C + S * h, C - S * h
    F *= np.exp(mu)[:, None, None]
    return F


def expm_stack(E):
    """exp(E_j) for each matrix of the stack E (k, d, d), member by member, so a
    member's bits do not depend on the stack: ``np.exp`` for d = 1, _expm2 for
    d = 2 up to ||E_j||_1 = theta_12 (above, its e^mu cosh and e^mu sinh terms
    may cancel), else the Taylor polynomial of the member's taylor_degrees
    degree, expm past theta_30.  A non-finite member raises InputError."""
    E = np.asarray(E, dtype=float)
    if E.shape[-1] == 1:
        if not np.isfinite(E).all():
            raise InputError("matrix contains non-finite entries")
        return np.exp(E)
    norms = norm1(E)
    closed = (norms <= _TAYLOR_THETA[_TAYLOR_TOP - 1]) & (E.shape[-1] == 2)
    if E.shape[-1] == 2 and closed.all():
        return _expm2(E)
    rest = np.flatnonzero(~closed)
    degrees = np.array(taylor_degrees(norms[rest]), dtype=int)
    order = rest[np.argsort(-degrees, kind="stable")]  # the members still to go: a prefix
    left = np.cumsum(np.bincount(degrees)[::-1])[::-1].tolist()  # left[k]: degree >= k
    eye = np.eye(E.shape[-1])
    S, acc = E[order], np.broadcast_to(eye, (len(order),) + eye.shape).copy()
    for k, c in zip(range(len(left) - 1, 0, -1), left[:0:-1]):
        acc[:c] = eye + (S[:c] @ acc[:c]) / k
    F = np.empty_like(E)
    F[order] = acc
    if closed.any():
        F[closed] = _expm2(E[closed])
    for j in rest[degrees == 0]:
        F[j] = expm(E[j])
    return F


def expm_chain(E, y, out):
    """Apply exp(E[0]), exp(E[1]), ... of a stack E (L, d, d) to y in turn,
    writing y after every k-th action into ``out`` (k = L // len(out)): one
    cumulative product for d = 1, up to d = 8 one expm_stack call and one
    product per action, above the Horner loop.  Raises DimensionError unless
    len(out) divides L, and InputError for a non-finite member."""
    if len(out) == 0 or len(E) % len(out):
        raise DimensionError(f"out holds {len(out)} states; it must divide {len(E)} actions")
    k = len(E) // len(out)
    if E.shape[-1] == 1:  # left to right: the floats of the loop y = exp(E[j]) * y
        chain = np.empty((len(E) + 1,) + y.shape)
        chain[0], chain[1:] = y, expm_stack(E).reshape((-1,) + (1,) * y.ndim)
        return np.copyto(out, np.cumprod(chain, axis=0, out=chain)[k::k]) or out
    formed = E.shape[-1] <= _FORM_DIM
    F = expm_stack(E) if formed else taylor_degrees(norm1(E))  # exp(E_j), or its degree
    slots = [None] * len(E)  # where y goes after each action: every k-th into out
    slots[k - 1::k] = out
    for Ej, Fj, slot in zip(E, F, slots):
        y = Fj.dot(y, out=slot) if formed else taylor_apply(Ej, y, Fj)
        if not (formed or slot is None):
            slot[...] = y
    return out


def expm_apply(M, Y):
    """exp(M) @ Y: up to d = 8 a chain of one, exp(M) formed; above, the
    Horner loop on Y of the smallest degree m with ||M||_1 <= theta_m, and
    past theta_30 the formed exponential (work logarithmic in ||M||)."""
    M, Y = _as_square(M), np.asarray(Y, dtype=float)
    if len(M) > _FORM_DIM:  # the Horner result is the answer: no buffer to copy it into
        return taylor_apply(M, Y, taylor_degrees(norm1(M)))
    return expm_chain(M[None], Y, np.empty((1,) + Y.shape))[0]


def pade2(M, h):
    """Second-order diagonal Pade (Cayley) map (I - h/2 M)^-1 (I + h/2 M):
    expm(h M) up to O(h^3), symplectic for Hamiltonian M.  Raises
    SingularityError, with the step size, when I - (h/2) M is singular."""
    M = _as_square(M)
    return pade2_apply(M, h, np.eye(len(M)))  # I + (h/2) M I is exact


def pade2_apply(M, h, Y):
    """Apply the pade2 map to the columns of Y without forming it."""
    M = _as_square(M)
    half = 0.5 * h * M
    return solve_checked(np.eye(M.shape[0]) - half, Y + half @ Y, where=h)


def symmetry_defect(M):
    """max_ij |M_ij - M_ji|, zero exactly for symmetric input."""
    M = _as_square(M)
    return float(np.max(np.abs(M - M.T)))


def min_eigenvalue_sym(M, tol=1e-8):
    """Smallest eigenvalue of a (numerically) symmetric matrix, symmetrized as
    (M + M^T)/2; an asymmetry defect above ``tol * max(1, |M|_max)`` is
    rejected with InputError."""
    M = np.asarray(M, dtype=float)
    defect = symmetry_defect(M)  # also checks that M is square, non-empty and finite
    if defect > tol * max(1.0, float(np.max(np.abs(M)))):
        raise InputError(f"matrix is asymmetric beyond tolerance (defect {defect:.3e})")
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
