import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm as scipy_expm
from scipy.sparse.linalg import expm_multiply

from conftest import canonical_j, random_hamiltonian, taylor_expm
from splitlq.errors import DimensionError, InputError, SingularityError
from splitlq.matfun import (_TAYLOR_THETA, _expm2, expm, expm_apply, expm_chain, expm_stack,
                            first_singular, min_eigenvalue_sym, norm1, pade2, pade2_apply,
                            rcond, solve_checked, symmetry_defect, taylor_apply,
                            taylor_degrees)


def test_expm_zero_is_identity():
    assert_allclose(expm(np.zeros((3, 3))), np.eye(3), atol=0.0)


def test_expm_diagonal_closed_form():
    E = expm(np.diag([1.0, -2.0]))
    assert_allclose(E, np.diag([np.e, np.exp(-2.0)]), rtol=1e-14)


def test_expm_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        M = rng.standard_normal((4, 4))
        M *= 1.0 / max(1.0, np.linalg.norm(M, 1))
        assert np.max(np.abs(expm(M) - taylor_expm(M))) < 1e-13


def test_expm_moderate_norms_against_oracle():
    rng = np.random.default_rng(8)
    for _ in range(5):
        M = rng.standard_normal((5, 5))
        M *= 10.0 / np.linalg.norm(M, 1)
        E = expm(M)
        relerr = np.max(np.abs(E - taylor_expm(M, terms=60))) / np.max(np.abs(E))
        assert relerr < 1e-12


def test_expm_inverse_identity():
    rng = np.random.default_rng(9)
    for _ in range(10):
        M = rng.standard_normal((4, 4))
        M *= 5.0 / np.linalg.norm(M, 1)
        assert np.max(np.abs(expm(M) @ expm(-M) - np.eye(4))) < 1e-12


def test_expm_hamiltonian_is_symplectic():
    rng = np.random.default_rng(10)
    J = canonical_j(2)
    for _ in range(10):
        M = random_hamiltonian(rng, 2)
        E = expm(M)
        assert np.max(np.abs(E.T @ J @ E - J)) < 1e-10


def test_expm_block_diagonal():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((2, 2))
    B = rng.standard_normal((3, 3))
    M = np.zeros((5, 5))
    M[:2, :2] = A
    M[2:, 2:] = B
    E = expm(M)
    assert_allclose(E[:2, :2], expm(A), rtol=0, atol=1e-13)
    assert_allclose(E[2:, 2:], expm(B), rtol=0, atol=1e-13)
    assert np.max(np.abs(E[:2, 2:])) == 0.0


@pytest.mark.parametrize("d", [2, 11, 128])
@pytest.mark.parametrize("norm", [1e-3, 0.2, 0.29, 0.31, 1.0, 30.0])
def test_expm_matches_scipy_on_both_sides_of_theta12(d, norm):
    # the block sizes the workloads form; at d = 2 and norm 30 nearly all
    # of the gap is scipy's own error (5.9e-13 of 6.0e-13 in 40-digit
    # arithmetic)
    rng = np.random.default_rng(int(1e6 * norm) + d)
    for _ in range(5):
        M = rng.standard_normal((d, d))
        M *= norm / np.linalg.norm(M, 1)
        assert _relerr(expm(M), scipy_expm(M)) <= 1e-12


@pytest.mark.parametrize("d", [2, 11, 128])
def test_expm_up_to_theta12_is_the_unscaled_taylor_polynomial_bit_for_bit(d):
    # one kernel: no scaling, and the Horner loop of taylor_apply on I
    rng = np.random.default_rng(110 + d)
    for M in _stack(rng, d, (1e-3, 0.2, 0.999 * _TAYLOR_THETA[11])):
        assert norm1(M) <= _TAYLOR_THETA[11]
        want = taylor_apply(M, np.eye(d), taylor_degrees(norm1(M)))
        assert expm(M).tobytes() == want.tobytes()


def test_expm_of_a_norm_near_the_largest_float():
    # the scaling exponent stays finite where the 1-norm over a threshold
    # would overflow, and the squarings underflow to the exact answer
    assert_allclose(expm(np.diag([-1e308, 0.0])), np.diag([0.0, 1.0]), rtol=0, atol=0)
    assert_allclose(expm(np.array([[-1e308, 0.0], [1e308, -1e308]])), np.zeros((2, 2)),
                    rtol=0, atol=0)


def test_expm_rejects_bad_input():
    with pytest.raises(DimensionError):
        expm(np.ones((2, 3)))
    with pytest.raises(InputError):
        expm(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_pade2_zero_step_is_identity():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert_allclose(pade2(M, 0.0), np.eye(2), atol=0.0)


def test_pade2_scalar_closed_form():
    assert_allclose(pade2(np.array([[1.0]]), 0.1), [[1.05 / 0.95]], rtol=1e-15)


def test_pade2_defect_third_order():
    rng = np.random.default_rng(12)
    M = rng.standard_normal((3, 3))
    h = 0.1
    d1 = np.max(np.abs(pade2(M, h) - expm(h * M)))
    d2 = np.max(np.abs(pade2(M, h / 2) - expm(h / 2 * M)))
    assert d1 / d2 == pytest.approx(8.0, rel=0.15)


def test_pade2_preserves_symplectic_group():
    rng = np.random.default_rng(13)
    J = canonical_j(2)
    for _ in range(10):
        M = random_hamiltonian(rng, 2)
        F = pade2(M, 0.7)
        assert np.max(np.abs(F.T @ J @ F - J)) < 1e-10


def test_pade2_singular_step_reports_h():
    # I - (h/2) M singular at h = 2 for M = I.
    with pytest.raises(SingularityError) as err:
        pade2(np.eye(2), 2.0)
    assert err.value.where == 2.0


@pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf])
def test_pade2_refuses_a_non_finite_step(h):
    # before any product: nan gave a singular-matrix error, inf a RuntimeWarning
    with pytest.raises(InputError, match="not finite"):
        pade2(np.eye(2), h)
    with pytest.raises(InputError, match="not finite"):
        pade2_apply(np.eye(2), h, np.ones((2, 1)))


@pytest.mark.parametrize("call", [
    expm, lambda M: expm_apply(M, np.ones(1)), lambda M: pade2(M, 0.1),
    symmetry_defect, min_eigenvalue_sym,
], ids=["expm", "expm_apply", "pade2", "symmetry_defect", "min_eigenvalue_sym"])
def test_public_matrix_functions_refuse_complex_input(call):
    # casting would warn and drop the imaginary part
    with pytest.raises(InputError, match="complex"):
        call(np.array([[1j]]))


@pytest.mark.parametrize("call", [
    lambda: expm([[800.0]]),
    lambda: expm_stack(np.array([[[800.0]]])),
    lambda: expm_chain(np.full((3, 1, 1), 700.0), np.array([1.0]), np.empty((3, 1))),
    lambda: expm_chain(np.full((2, 1, 1), 360.0), np.ones((1, 2)), np.empty((1, 1, 2))),
], ids=["expm", "expm_stack", "expm_chain", "expm_chain-block"])
def test_scalar_exponential_that_overflows_is_an_input_error(call):
    # each exponent of the chains is in range; their running products are not
    with pytest.raises(InputError, match="overflows"):
        call()


def test_scalar_exponentials_in_range_still_run():
    assert expm([[709.0]])[0, 0] == np.exp(709.0)
    assert expm_stack(np.array([[[-800.0]]]))[0, 0, 0] == 0.0  # underflow is no error
    out = np.empty((3, 1))
    assert not expm_chain(np.full((3, 1, 1), 700.0), np.zeros(1), out).any()
    expm_chain(np.array([[[700.0]], [[-700.0]], [[700.0]]]), np.ones(1), out)
    assert out[-1, 0] == np.exp(700.0) * np.exp(-700.0) * np.exp(700.0)


def test_symmetry_defect():
    assert symmetry_defect(np.eye(3)) == 0.0
    assert symmetry_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1.0
    rng = np.random.default_rng(14)
    M = rng.standard_normal((4, 4))
    assert symmetry_defect(M + M.T) < 1e-15
    with pytest.raises(DimensionError):
        symmetry_defect(np.ones((2, 3)))


def test_min_eigenvalue_sym():
    assert min_eigenvalue_sym(np.diag([3.0, 1.0, 2.0])) == pytest.approx(1.0)
    assert min_eigenvalue_sym(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0)
    rng = np.random.default_rng(15)
    for _ in range(10):
        G = rng.standard_normal((4, 4))
        assert min_eigenvalue_sym(G.T @ G) >= -1e-12
    with pytest.raises(InputError):
        min_eigenvalue_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _relerr(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", [1, 2, 11, 32])
@pytest.mark.parametrize("norm", [1e-6, 1e-3, 0.1, 1.0, 2.0, 0.999 * _TAYLOR_THETA[-1],
                                  10.0])
def test_expm_apply_matches_expm_and_scipy(n, norm):
    # Taylor degrees 2 to 30, and the formed-exponential fallback at norm 10,
    # where the scipy comparison measures the accuracy of expm itself.
    scipy_tol = 1e-14 if norm <= _TAYLOR_THETA[-1] else 1e-13
    rng = np.random.default_rng(int(1e6 * norm) + n)
    for _ in range(5):
        M = rng.standard_normal((n, n))
        M *= norm / np.linalg.norm(M, 1)
        for Y in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            ref = expm(M) @ Y
            got = expm_apply(M, Y)
            assert got.shape == ref.shape
            assert _relerr(got, ref) < 1e-14
            assert _relerr(got, expm_multiply(M, Y)) < scipy_tol


def test_expm_apply_above_theta30_forms_the_exponential():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 5))
    M *= 1.01 * _TAYLOR_THETA[-1] / np.linalg.norm(M, 1)
    Y = rng.standard_normal((5, 2))
    assert_allclose(expm_apply(M, Y), expm(M) @ Y, rtol=0.0, atol=0.0)


def _stack(rng, d, norms):
    # members of the given 1-norms, past theta_30 included
    E = rng.standard_normal((len(norms), d, d))
    return E * (np.asarray(norms) / norm1(E))[:, None, None]


_THETA12 = _TAYLOR_THETA[11]  # 2 x 2 stack members up to it take the closed form
_STACK_NORMS = (0.3, 1e-6, 2.0, 0.05, 1.01 * _TAYLOR_THETA[-1], 1.0)


@pytest.mark.parametrize("d", [2, 6, 8])
def test_expm_stack_member_is_the_member_alone_bit_for_bit(d):
    # the members need Taylor degrees from 2 to 30 and the formed fallback.
    # A kernel that ran every member at the stack's largest degree adds
    # terms below roundoff, which still move the last bits of some members
    # at d = 6 and 8, so a result would depend on where chunk edges fall.
    # At d = 2 the members on either side of theta_12 take the closed form
    # and the Taylor loop.
    norms = (*np.geomspace(1e-8, 3.5, 24), 0.999 * _THETA12, 1.001 * _THETA12,
             1.01 * _TAYLOR_THETA[-1])
    E = _stack(np.random.default_rng(80 + d), d, norms)
    assert set(taylor_degrees(norm1(E))) >= {2, 30, 0}
    assert 0 < (norm1(E) <= _THETA12).sum() < len(E)
    F = expm_stack(E)
    for j in range(len(E)):
        assert F[j].tobytes() == expm_stack(E[j:j + 1])[0].tobytes()


@pytest.mark.parametrize("d", [1, 2, 6, 8])
def test_expm_stack_agrees_with_expm_apply_and_the_horner_loop(d):
    # against expm_apply, against the Horner loop on the block that runs
    # above d = 8, and against scipy
    rng = np.random.default_rng(90 + d)
    E = _stack(rng, d, _STACK_NORMS)
    Y = rng.standard_normal((d, 3))
    F = expm_stack(E)
    for M, m, FM in zip(E, taylor_degrees(norm1(E)), F):
        got = FM @ Y
        assert _relerr(got, expm_apply(M, Y)) <= 1e-14
        assert _relerr(got, taylor_apply(M, Y, m)) <= 1e-14
        assert _relerr(FM, scipy_expm(M)) <= (1e-14 if m else 1e-13)


def _stored_powers(M, y, m):
    # the degree-m polynomial on a vector: the powers of 2^-e M applied to y,
    # e the least with theta_m <= 2^e, summed once with weights 2^(e k) / k!
    e = max(0, math.ceil(math.log2(_TAYLOR_THETA[m - 1])))
    powers = [y]
    for _ in range(m):
        powers.append(np.ldexp(M, -e) @ powers[-1])
    return np.array([2 ** (e * k) / math.factorial(k) for k in range(m + 1)]) @ np.array(powers)


def _horner(M, Y, m):
    acc = Y
    for k in range(m, 0, -1):
        acc = Y + (M @ acc) / k
    return acc


@pytest.mark.parametrize("cols", [None, 3])
@pytest.mark.parametrize("d", [9, 32, 128])
def test_taylor_apply_is_the_written_out_horner_loop_bit_for_bit(d, cols):
    # at Taylor degrees 3 to 30, as the actions above d = 8 run them: on a
    # block the loop acc = Y + (M @ acc) / k, on a vector its stored powers
    rng = np.random.default_rng(100 + d)
    Y = rng.standard_normal(d if cols is None else (d, cols))
    for M in _stack(rng, d, (1e-6, 0.3, 2.0, 0.999 * _TAYLOR_THETA[-1])):
        m = taylor_degrees(norm1(M))
        want = _horner(M, Y, m) if cols else _stored_powers(M, Y, m)
        assert taylor_apply(M, Y, m).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [9, 32, 128])
def test_taylor_apply_on_a_vector_meets_scipy(d):
    # every degree from 3 to 30 at the top of its range, the scaled powers
    # past theta_17 among them
    rng = np.random.default_rng(110 + d)
    norms = (1e-6, *(0.999 * t for t in _TAYLOR_THETA[3:]))
    assert taylor_degrees(norms) == list(range(3, 31))
    for M in _stack(rng, d, norms):
        y = rng.standard_normal(d)
        ref = scipy_expm(M) @ y
        got = taylor_apply(M, y, taylor_degrees(norm1(M)))
        assert np.max(np.abs(got - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("d", [9, 32, 128])
def test_taylor_apply_on_a_huge_vector_does_not_overflow(d):
    # ||M||_1 = 3.5 needs degree 30, whose unscaled powers M^k y reach 3.5^30
    # times y = 1e300; the powers of M / 4 stay below |y|
    M, y = np.full((d, d), 3.5 / d), np.full(d, 1e300)
    got = taylor_apply(M, y, 30)
    assert np.isfinite(got).all()
    assert _relerr(got, _horner(M, y, 30)) <= 1e-14


class _CountedDot(np.ndarray):
    calls = 0

    def dot(self, *args, **kwargs):
        _CountedDot.calls += 1
        return super().dot(*args, **kwargs)


@pytest.mark.parametrize("m", [1, 8, 17, 18, 30])
def test_taylor_apply_on_a_vector_takes_one_product_per_degree(m):
    M = _stack(np.random.default_rng(120), 32, [0.99 * _TAYLOR_THETA[m - 1]])[0]
    _CountedDot.calls = 0
    got = taylor_apply(M.view(_CountedDot), np.ones(32), m)
    assert _CountedDot.calls == m
    assert got.tobytes() == taylor_apply(M, np.ones(32), m).tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_expm_stack_rejects_a_non_finite_member(d, bad):
    E = _stack(np.random.default_rng(7), d, (0.1, 0.2, 0.3))
    E[1, 0, -1] = bad
    with pytest.raises(InputError):
        expm_stack(E)


def _taylor_member(M):
    # expm_stack's Taylor loop, written out for a stack of one
    acc = np.eye(len(M))[None]
    for k in range(taylor_degrees([norm1(M)])[0], 0, -1):
        acc = np.eye(len(M)) + (M[None] @ acc) / k
    return acc[0]


@pytest.mark.parametrize("M, exact", [
    ([[0.1, 0.05], [0.02, -0.08]], None),  # q > 0
    ([[0.01, 0.12], [-0.12, 0.02]], None),  # q < 0: a rotation times e^mu
    ([[0.0, 0.29], [-0.29, 0.0]], None),  # q < 0 just below theta_12
    ([[0.0, 0.25], [0.0, 0.0]], [[1.0, 0.25], [0.0, 1.0]]),  # q = 0: nilpotent
    ([[0.1, 0.1], [-0.1, -0.1]], [[1.1, 0.1], [-0.1, 0.9]]),  # q = 0 from h^2 = -bc
    ([[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]),  # nilpotent above theta_12
], ids=["q>0", "rotation", "rotation-near-theta12", "nilpotent", "square-zero",
        "nilpotent-above-theta12"])
def test_expm_stack_2x2_member_takes_its_path_and_matches_scipy(M, exact):
    # up to theta_12 a 2 x 2 member is the closed form, above it the Taylor loop
    M = np.array(M)
    F = expm_stack(M[None])[0]
    path = _expm2(M[None])[0] if norm1(M) <= _THETA12 else _taylor_member(M)
    assert F.tobytes() == path.tobytes()
    assert _relerr(F, scipy_expm(M)) <= 1e-14
    if exact is not None:
        assert_allclose(F, exact, rtol=0, atol=0)


@pytest.mark.parametrize("scale", [0.999, 1.001])
def test_expm_stack_cancelling_member_on_both_sides_of_theta12(scale):
    # diag(0, -2 delta): mu = -delta, so e^mu (cosh delta - sinh delta) is
    # the small entry; every entry is accurate to roundoff on both sides
    two_delta = scale * _THETA12
    M = np.diag([0.0, -two_delta])
    F = expm_stack(M[None])[0]
    assert _relerr(F, scipy_expm(M)) <= 1e-14
    assert abs(F[1, 1] / np.exp(-two_delta) - 1.0) <= 1e-14
    path = _expm2(M[None])[0] if scale < 1 else _taylor_member(M)
    assert F.tobytes() == path.tobytes()


def test_expm_stack_keeps_large_members_off_the_closed_form():
    # at 2 delta = 40 the closed form's cosh - sinh cancels to e^-40 from
    # 2.4e8 and keeps no correct digit; expm_stack forms it past theta_30
    M = np.diag([0.0, -40.0])
    assert abs(_expm2(M[None])[0, 1, 1] / np.exp(-40.0) - 1.0) > 1e-3
    assert abs(expm_stack(M[None])[0, 1, 1] / np.exp(-40.0) - 1.0) <= 1e-14


@pytest.mark.parametrize("d", [1, 2, 3])
def test_expm_stack_of_no_members_is_empty(d):
    assert expm_stack(np.zeros((0, d, d))).shape == (0, d, d)


@pytest.mark.parametrize("call", [
    expm, lambda M: expm_apply(M, np.zeros(0)), lambda M: pade2(M, 0.1),
    min_eigenvalue_sym, symmetry_defect,
], ids=["expm", "expm_apply", "pade2", "min_eigenvalue_sym", "symmetry_defect"])
def test_public_matrix_functions_refuse_an_empty_matrix(call):
    with pytest.raises(DimensionError, match="non-empty"):
        call(np.zeros((0, 0)))


@pytest.mark.parametrize("k", [1, 2, 6])
@pytest.mark.parametrize("d", [1, 2, 8, 11, 32])
def test_expm_chain_is_expm_apply_member_by_member_bit_for_bit(d, k):
    # 12 actions whose Taylor degrees span 1 to 30 and the formed fallback;
    # y after every k-th one lands in ``out``, which is returned as it is
    rng = np.random.default_rng(100 + 10 * d + k)
    E = _stack(rng, d, np.geomspace(1e-9, 1.2 * _TAYLOR_THETA[-1], 12)[rng.permutation(12)])
    for y in (rng.standard_normal(d), rng.standard_normal((d, 3))):
        out = np.full((12 // k,) + y.shape, np.nan)
        got = expm_chain(E, y, out)
        assert got is out
        ref, x, z = [], y, y
        for j, M in enumerate(E):
            x = expm_apply(M, x)
            if d == 1:  # the plain loop of scalar products too
                z = np.exp(M[0, 0]) * z
                assert x.tobytes() == z.tobytes()
            if (j + 1) % k == 0:
                ref.append(x)
        assert out.tobytes() == np.array(ref).tobytes()


def test_expm_chain_writes_in_place_and_rejects_a_non_finite_member():
    rng = np.random.default_rng(5)
    for d in (1, 3, 9):
        E, y = _stack(rng, d, (0.1, 0.2, 0.3, 0.4)), rng.standard_normal((d, 2))
        out = np.empty((2, d, 2))
        got = expm_chain(E, y, out)
        assert np.shares_memory(got, out) and not np.shares_memory(got, y)
        E[2, 0, -1] = np.nan
        with pytest.raises(InputError):
            expm_chain(E, y, out)


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("m", [0, 3, 4, 8])
def test_expm_chain_refuses_an_out_whose_length_does_not_divide_the_stack(d, m):
    # 7 actions into 4 slots would apply 4 of them, into 3 never write the last
    rng = np.random.default_rng(6)
    E, y = _stack(rng, d, np.full(7, 0.1)), rng.standard_normal(d)
    with pytest.raises(DimensionError, match=f"out holds {m} states"):
        expm_chain(E, y, np.empty((m, d)))


def test_expm_apply_zero_matrix_is_identity():
    Y = np.arange(6.0).reshape(3, 2)
    assert_allclose(expm_apply(np.zeros((3, 3)), Y), Y, rtol=0.0, atol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("n", [1, 3])
def test_expm_apply_rejects_non_finite(n, bad):
    M = np.eye(n)
    M[0, -1] = bad
    with pytest.raises(InputError):
        expm_apply(M, np.ones(n))


def test_expm_apply_rejects_non_square():
    with pytest.raises(DimensionError):
        expm_apply(np.ones((2, 3)), np.ones(3))


@pytest.mark.parametrize("value, expected", [
    (2.5, 1.0), (1e-300, 1.0), (0.0, 0.0), (np.inf, 0.0), (np.nan, 0.0)])
def test_rcond_scalar_path(value, expected):
    assert rcond(np.array([[value]])) == expected


def test_rcond_stack_matches_single_matrices():
    rng = np.random.default_rng(71)
    stack = np.stack([rng.standard_normal((3, 3)), np.zeros((3, 3)),
                      np.diag([1.0, 1.0, 1e-14]), np.eye(3)])
    got = rcond(stack)
    assert got.shape == (4,)
    for g, A in zip(got, stack):
        assert g == rcond(A)
    assert first_singular(stack)[0] == 1
    assert first_singular(stack[[0, 3]]) is None
    scalars = np.array([1.0, 3.0, 0.0]).reshape(3, 1, 1)
    assert list(rcond(scalars)) == [1.0, 1.0, 0.0]


def test_solve_checked_stack_names_first_failing_label():
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-14]), np.zeros((2, 2))])
    with pytest.raises(SingularityError, match="1.000e-14") as err:
        solve_checked(stack, np.ones((3, 2, 1)), where=[0.5, 0.25, 0.0])
    assert err.value.where == 0.25


def test_taylor_degrees_rule():
    # The smallest m with norm <= theta_m; 0 (form the exponential) above
    # theta_30; a non-finite norm is an input error.
    theta = _TAYLOR_THETA
    assert taylor_degrees([0.0, theta[4], theta[4] * 1.01, theta[-1], theta[-1] * 1.01]) \
        == [1, 5, 6, 30, 0]
    with pytest.raises(InputError):
        taylor_degrees(np.array([0.1, np.nan]))


@pytest.mark.parametrize("call", [
    expm, lambda M: pade2(M, 0.1), lambda M: pade2_apply(M, 0.1, np.ones((2, 1))),
    symmetry_defect, min_eigenvalue_sym,
], ids=["expm", "pade2", "pade2_apply", "symmetry_defect", "min_eigenvalue_sym"])
def test_public_matrix_functions_reject_nan(call):
    with pytest.raises(InputError, match="non-finite"):
        call(np.array([[1.0, np.nan], [np.nan, 1.0]]))
