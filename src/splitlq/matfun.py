"""Dense small-matrix utilities.

Matrix exponential by scaling and squaring with a degree-6 diagonal Pade
kernel, its action on a block of vectors by a truncated Taylor series, the
Cayley / Pade(1,1) map, and structural checks (symmetry defect, smallest
eigenvalue of a symmetric matrix).  Everything here is a pure function of
its inputs; matrices are plain ``numpy`` arrays.  Actions exp(E_j) @ Y
run in one chain kernel, ``expm_chain``: a cumulative product for d = 1,
a formed stack up to d = 8, the Horner loop on the block Y above.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, InputError, SingularityError

# Degree-6 diagonal Pade numerator of exp(x):
#   N(x) = sum_j PADE6_NUM[j] x^j / 665280,  D(x) = N(-x).
# With the scaling threshold ||X||_1 <= 1/2 the kernel error is far below
# 1e-13, so accuracy is limited by the squarings only.
_PADE6_NUM = (665280.0, 332640.0, 75600.0, 10080.0, 840.0, 42.0, 1.0)
_SCALING_THRESHOLD = 0.5

# theta_m, m = 1..30: the largest 1-norm of M for which the degree-m Taylor
# polynomial of exp(M) has backward error below the double-precision unit
# roundoff (Higham, Functions of Matrices, Table A.3; Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 2011).
_TAYLOR_THETA = (2.29e-16, 2.58e-8, 1.39e-5, 3.4e-4, 2.4e-3, 9.07e-3, 2.38e-2,
                 5.0e-2, 8.96e-2, 0.144, 0.214, 0.3, 0.4, 0.514, 0.641, 0.781,
                 0.931, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64,
                 2.86, 3.08, 3.31, 3.54)

# Up to this d a CF4 chunk spans more than one step and a call costs more
# than its flops: exp(M) @ Y forms exp(M), one stack per chunk.
_FORM_DIM = 8

# 1/cond below this means the solve result cannot be trusted.
RCOND_FLOOR = 1e-12


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def norm1(M):
    """1-norm (largest absolute column sum) of M, or of each matrix of a
    stack M (..., d, d)."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


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
    """Solve A X = B by LU with partial pivoting, guarding the condition.

    Raises SingularityError when 1/cond(A) < RCOND_FLOOR (0 when singular).
    A may be a stack over a leading axis, solved matrix by matrix; ``where``
    then lists a label per matrix, and the first failing one is reported.
    """
    A = np.asarray(A, dtype=float)
    hit = first_singular(A)
    if hit is not None:
        k, r = hit
        raise SingularityError(f"matrix is numerically singular (1/cond = {r:.3e})",
                               where=where if A.ndim == 2 else where[k])
    return np.linalg.solve(A, B)


def expm(M):
    """Matrix exponential of a square matrix.

    Scales M by 2**-i until the 1-norm is at most 1/2, applies the degree-6
    diagonal Pade kernel and squares the result i times.  Relative accuracy
    is ~1e-13 or better for moderate norms.
    """
    M = _as_square(M)
    n = M.shape[0]
    if n == 1:
        return np.array([[np.exp(M[0, 0])]])
    norm = norm1(M)
    squarings = 0
    if norm > _SCALING_THRESHOLD:
        squarings = int(np.ceil(np.log2(norm / _SCALING_THRESHOLD)))
    X = M / (2.0**squarings)

    # Evaluate numerator/denominator with the even/odd split so only one
    # linear solve is needed; the denominator N(-X) is provably far from
    # singular at ||X||_1 <= 1/2, so a plain LU solve suffices.
    X2 = X @ X
    X4 = X2 @ X2
    eye = np.eye(n)
    c = _PADE6_NUM
    even = c[0] * eye + c[2] * X2 + (c[4] * eye + c[6] * X2) @ X4
    odd = X @ (c[1] * eye + c[3] * X2 + c[5] * X4)
    F = np.linalg.solve(even - odd, even + odd)

    for _ in range(squarings):
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
    """exp(M) @ Y for the ``degree`` that taylor_degrees picks for M: Horner
    evaluation of the Taylor polynomial, and the formed exponential for
    degree 0."""
    if degree == 0:
        return expm(M) @ Y
    acc = Y
    for k in range(degree, 0, -1):
        acc = Y + (M @ acc) / k
    return acc


def expm_stack(E):
    """exp(E_j) for each matrix of the stack E (k, d, d): the Taylor
    polynomial of each member's own taylor_degrees degree (never the stack's
    largest, so a member's bits do not depend on the stack), ``np.exp`` for
    d = 1, expm past theta_30.  A non-finite member raises InputError."""
    E = np.asarray(E, dtype=float)
    if E.shape[-1] == 1:
        if not np.isfinite(E).all():
            raise InputError("matrix contains non-finite entries")
        return np.exp(E)
    degrees = np.array(taylor_degrees(norm1(E)), dtype=int)
    order = np.argsort(-degrees, kind="stable")  # the members still to go: a prefix
    left = np.cumsum(np.bincount(degrees)[::-1])[::-1].tolist()  # left[k]: degree >= k
    eye = np.eye(E.shape[-1])
    S, acc = E[order], np.broadcast_to(eye, E.shape).copy()
    for k in range(len(left) - 1, 0, -1):
        c = left[k]
        acc[:c] = eye + (S[:c] @ acc[:c]) / k
    F = np.empty_like(E)
    F[order] = acc
    for j in np.flatnonzero(degrees == 0):
        F[j] = expm(E[j])
    return F


def expm_chain(E, y, out):
    """Apply exp(E[0]), exp(E[1]), ... of a stack E (L, d, d) to y in turn,
    writing y after every k-th action into ``out`` (k = L // len(out)): one
    cumulative product for d = 1, up to d = 8 one expm_stack call and one
    product per action, above the Horner loop.  Raises InputError for a
    non-finite member."""
    k = len(E) // len(out)
    if E.shape[-1] == 1:  # left to right: the floats of the loop y = exp(E[j]) * y
        chain = np.empty((len(E) + 1,) + y.shape)
        chain[0], chain[1:] = y, expm_stack(E).reshape((-1,) + (1,) * y.ndim)
        return np.copyto(out, np.cumprod(chain, axis=0, out=chain)[k::k]) or out
    formed = E.shape[-1] <= _FORM_DIM
    F = expm_stack(E) if formed else taylor_degrees(norm1(E))  # exp(E_j), or its degree
    for j in range(len(E)):
        i, r = divmod(j + 1, k)
        y = F[j].dot(y, out=None if r else out[i - 1]) if formed else taylor_apply(E[j], y, F[j])
        if not (formed or r):
            out[i - 1] = y
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
    """Second-order diagonal Pade (Cayley) map (I - h/2 M)^-1 (I + h/2 M).

    Agrees with expm(h M) up to O(h^3) and preserves the symplectic group
    for Hamiltonian M.  Raises SingularityError when I - (h/2) M is
    numerically singular, reporting the offending step size.
    """
    M = _as_square(M)
    n = M.shape[0]
    half = 0.5 * h * M
    return solve_checked(np.eye(n) - half, np.eye(n) + half, where=h)


def pade2_apply(M, h, Y):
    """Apply the pade2 map to the columns of Y without forming it."""
    M = _as_square(M)
    half = 0.5 * h * M
    rhs = Y + half @ Y
    return solve_checked(np.eye(M.shape[0]) - half, rhs, where=h)


def symmetry_defect(M):
    """max_ij |M_ij - M_ji|, zero exactly for symmetric input."""
    M = _as_square(M)
    return float(np.max(np.abs(M - M.T))) if M.size else 0.0


def min_eigenvalue_sym(M, tol=1e-8):
    """Smallest eigenvalue of a (numerically) symmetric matrix.

    The input is symmetrized as (M + M^T)/2 before the eigen-solve; an
    asymmetry defect above ``tol * max(1, |M|_max)`` is rejected.
    """
    M = np.asarray(M, dtype=float)
    defect = symmetry_defect(M)  # also checks that M is square and finite
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if defect > tol * scale:
        raise InputError(
            f"matrix is asymmetric beyond tolerance (defect {defect:.3e})"
        )
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[0])
