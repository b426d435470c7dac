"""Dense small-matrix utilities.

Matrix exponential by scaling and squaring with a degree-6 diagonal Pade
kernel, its action on a block of vectors by a truncated Taylor series, the
Cayley / Pade(1,1) map, and structural checks (symmetry defect, smallest
eigenvalue of a symmetric matrix).  Everything here is a pure function of
its inputs; matrices are plain ``numpy`` arrays.  An exponential is formed
only where the matrix is reused; a single product exp(M) @ Y goes through
``expm_apply``.
"""

from __future__ import annotations

import bisect

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

# 1/cond below this means the solve result cannot be trusted.
RCOND_FLOOR = 1e-12


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} contains non-finite entries")
    return M


def rcond(A):
    """1-norm reciprocal condition number from the explicit inverse; 0.0
    when LAPACK reports A singular."""
    try:
        norms = np.linalg.norm(A, 1) * np.linalg.norm(np.linalg.inv(A), 1)
    except np.linalg.LinAlgError:
        return 0.0
    return 1.0 / norms if norms > 0 else 0.0


def solve_checked(A, B, where=None):
    """Solve A X = B by LU with partial pivoting, guarding the condition.

    Raises SingularityError when 1/cond(A) < RCOND_FLOOR (0 when singular).
    """
    A = np.asarray(A, dtype=float)
    r = rcond(A)
    if r < RCOND_FLOOR:
        raise SingularityError(
            f"matrix is numerically singular (1/cond = {r:.3e})", where=where
        )
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
    norm = np.linalg.norm(M, 1)
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


def expm_apply(M, Y):
    """exp(M) @ Y without forming exp(M).

    Horner evaluation of the Taylor polynomial of the smallest degree m
    with ||M||_1 <= theta_m; above theta_30 the exponential is formed and
    applied, which keeps the work logarithmic in ||M||.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {M.shape}")
    norm = abs(M[0, 0]) if M.shape == (1, 1) else np.linalg.norm(M, 1)
    if not np.isfinite(norm):
        raise InputError("matrix contains non-finite entries")
    if M.shape == (1, 1):
        return np.exp(M[0, 0]) * Y
    if norm > _TAYLOR_THETA[-1]:
        return expm(M) @ Y
    acc = Y
    for k in range(bisect.bisect_left(_TAYLOR_THETA, norm) + 1, 0, -1):
        acc = Y + (M @ acc) / k
    return acc


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
    M = _as_square(M)
    defect = symmetry_defect(M)
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if defect > tol * scale:
        raise InputError(
            f"matrix is asymmetric beyond tolerance (defect {defect:.3e})"
        )
    sym = 0.5 * (M + M.T)
    return float(np.linalg.eigvalsh(sym)[0])
